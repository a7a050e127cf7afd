"""Regenerate reference.json, the benchmark's committed reference data.

    python3 perfbench/make_reference.py

It records, from the eecap source tree it runs against:

- the solve_ladder input pool: per n, networks with distances uniform in
  [1, 6] m and rate targets u in [0.2, 0.8] times each node's rate at
  tau = 0.5/n, n_t = 2646, so every network is provably feasible;
- every pool network's objective, variant, convergence and solve time for
  each objective the workload runs (the solve time only orders the pool
  into bins);
- the dense-grid optimum of every 2-node EE input, from the grid oracle of
  acceptance criterion 6 (about 3 s each, so never computed per run);
- the stdout CSV of every shipped sweeps command.

Run it on the commit whose outputs are the reference; it takes a few minutes.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import eecap  # noqa: E402
from test_acceptance import grid_search_ee  # noqa: E402
from workloads import (LADDER_BATCH, LADDER_POOL, REFERENCE, SWEEP_COMMANDS,  # noqa: E402
                       run_cli, scenario_argv)


def ladder_inputs(n: int, index: int) -> tuple[list, list]:
    rng = random.Random(f"solve_ladder/n={n}/index={index}")
    d = [rng.uniform(1.0, 6.0) for _ in range(n)]
    probe = eecap.build_network(d, [0.0] * n)
    _, rates, _ = eecap.evaluate(probe, [0.5 / n] * n, [probe.phy.n_t_max] * n)
    r_min = [rng.uniform(0.2, 0.8) * r for r in rates]
    return d, r_min


def ladder_entry(n: int, index: int) -> dict:
    d, r_min = ladder_inputs(n, index)
    net = eecap.build_network(d, r_min)
    entry = {"index": index, "d": d, "r_min": r_min}
    for (size, objective) in LADDER_BATCH:
        if size != n:
            continue
        t0 = time.perf_counter()
        sol = eecap.eecap(net, eecap.SolverConfig(objective=objective))
        entry[objective] = {
            "objective": sol.objective_value, "variant": sol.variant_used,
            "feasible": sol.feasible, "converged": sol.converged,
            "iterations": sol.iterations, "seconds": time.perf_counter() - t0,
        }
    if n == 2:
        entry["grid_ee"] = grid_search_ee(net)
    return entry


def main() -> None:
    ref = {
        "source": {"eecap": eecap.__version__, "python": platform.python_version(),
                   "machine": platform.machine(), "processor": platform.processor()},
        "solve_ladder": {},
        "sweeps": {},
    }
    for n, size in LADDER_POOL.items():
        ref["solve_ladder"][str(n)] = []
        for index in range(size):
            ref["solve_ladder"][str(n)].append(ladder_entry(n, index))
            print(f"solve_ladder n={n} index={index}", file=sys.stderr, flush=True)
    for label, argv in SWEEP_COMMANDS:
        code, out, _ = run_cli(scenario_argv(argv))
        if code != 0:
            raise SystemExit(f"{label}: exit code {code}")
        ref["sweeps"][label] = out
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
