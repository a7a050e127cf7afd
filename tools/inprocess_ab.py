"""In-process A/B of two eecap checkouts on one benchmark workload.

    mkdir -p ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 tools/inprocess_ab.py --parent ../parent --workload solve_ladder --seed 11 --batches 40

Builds the workload from the parent checkout's ``src`` and
``perfbench/workloads.py``, then from the change checkout's (by default the
one that holds this script), each under module objects of its own, so both
run in one process and share its host noise.  It then times batch i of each
side in turn, for i = 0 .. batches - 1, with the side that goes first
alternating, after one untimed batch per side.  A batch is timed as
``perfbench/run.py`` times it, without checking the results.  It prints each
side's median, quartiles and mean batch time, the batches each side won,
and the median ratio of the change's time to the parent's on one batch.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(root: Path, workload: str, seed: int):
    """The workload built from root's src and perfbench, with modules of its own."""
    for name in [m for m in sys.modules if m in ("eecap", "workloads") or m.startswith("eecap.")]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    where = Path(workloads.eecap.__file__).resolve().parent
    if where != (root / "src" / "eecap").resolve():
        raise SystemExit(f"error: eecap imported from {where}, not {root / 'src'}")
    return workloads.WORKLOADS[workload](seed, workloads.load_reference())


def timed(wl, index: int) -> float:
    ops = wl.batch(index)
    t0 = time.perf_counter()
    for op in ops:
        op.call()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--change", type=Path, default=ROOT, help="the change's checkout")
    p.add_argument("--workload", required=True, choices=("solve_ladder", "sweeps", "montecarlo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--batches", type=int, default=40)
    args = p.parse_args(argv)
    sides = {"parent": load(args.parent, args.workload, args.seed),
             "change": load(args.change, args.workload, args.seed)}
    times = {side: [] for side in sides}
    for wl in sides.values():
        timed(wl, 0)
    for i in range(args.batches):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            times[side].append(timed(sides[side], i))
    for side, ts in times.items():
        other = times["change" if side == "parent" else "parent"]
        q1, _, q3 = statistics.quantiles(ts, n=4)
        wins = sum(a < b for a, b in zip(ts, other))
        print(f"{side}: median {statistics.median(ts):.6f} s, quartiles {q1:.6f}-{q3:.6f} s, "
              f"mean {statistics.fmean(ts):.6f} s, won {wins} of {len(ts)}")
    pm, cm = statistics.median(times["parent"]), statistics.median(times["change"])
    ratio = statistics.median(c / p for p, c in zip(times["parent"], times["change"]))
    print(f"change median against parent median: {100.0 * (cm - pm) / pm:+.1f} %; "
          f"median batch ratio change/parent: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
