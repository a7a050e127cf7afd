"""Benchmark of eecap: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the benchmark imports eecap
from the checkout's ``src`` directory and reads ``scenarios``.  It prints a
human-readable report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see workloads.py): ``solve_ladder`` (seeded random networks at
n = 2, 4, 8, 16 through ``eecap()``), ``sweeps`` (the shipped CLI commands
through ``eecap.cli.main``) and ``montecarlo`` (``simulate`` and the
estimators at fixed operating points).  Each runs in one process, without
threads or process pools.

``--trace 0`` measures end to end.  A measuring child process sets up the
workload and then runs batches of operations until the next batch would
overrun ``--seconds``.  Metrics:

- ``setup_s``: from spawning a process until its first timed call: Python
  start-up, importing eecap, reading scenarios and reference data, building
  every input network.  Median over five processes (four that only set up,
  and the measuring child).
- ``wall_s``: median duration of one batch, the workload's unit of work.
- ``peak_rss_mb``: peak resident set of the measuring child alone, from
  ``os.wait4`` on that child.

The report above the JSON line adds the metrics that apply to some
workloads only: ``solves_per_s``, ``slots_per_s``, ``solve_s.n2`` ..
``solve_s.n16`` (median solve time per node count), ``fail_share``,
``cap_hit_share``, ``grid_gap_max`` and ``objective_shortfall_max``.

``--trace 1`` runs the first batch (on solve_ladder, its first solve of
each kind) untraced, then with every public eecap function wrapped
(layertrace.py), then untraced again, and reports per-layer counts and
times plus the tracing overhead: the traced time minus the faster
untraced one.  The workload's set-up is traced too.  It then replays the
first operation of each kind under a fresh tracer and requires the same
call counts.  Spans are written to ``.bench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# A child still running this long after the run's time budget is killed.
CHILD_GRACE_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("solve_ladder", "sweeps", "montecarlo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("probe", "measure", "trace"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------- child side
# Child code imports workloads (and through it eecap) only after import_eecap
# has put the checkout's src directory first on the path.

def import_eecap():
    """Import eecap from the checkout's src directory and nowhere else."""
    sys.path.insert(0, str(SRC))
    import eecap
    if Path(eecap.__file__).resolve().parent != SRC / "eecap":
        raise SystemExit(f"error: eecap imported from {eecap.__file__}, not {SRC}")
    return eecap


def run_ops(ops: list) -> tuple[list, float]:
    """Call every operation; per-operation (result, seconds) and the batch's wall time."""
    results = []
    t_batch = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation, reported with its type
            result = exc
        results.append((result, time.perf_counter() - t0))
    return results, time.perf_counter() - t_batch


def check_ops(wl, ops: list, results: list, outcomes: list) -> None:
    from workloads import Outcome
    for op, (result, seconds) in zip(ops, results):
        if isinstance(result, Exception):
            outcomes.append(Outcome(seconds, attempted=op.items,
                                    failures=[f"exception {type(result).__name__}"] * op.items))
        else:
            outcomes.append(wl.check(op, result, seconds))


def tally(outcomes: list) -> dict:
    from workloads import FAILED_ONLY
    reasons = Counter(r for o in outcomes for r in o.failures[:o.failed])
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "correct": all(r in FAILED_ONLY for r in reasons),
        "reasons": dict(reasons),
    }


def child_measure(wl, seconds: float) -> dict:
    outcomes, walls = [], []
    t_begin = time.perf_counter()
    index = 0
    while True:
        ops = wl.batch(index)
        results, wall = run_ops(ops)
        walls.append(wall)
        check_ops(wl, ops, results, outcomes)
        index += 1
        if time.perf_counter() - t_begin + wall > seconds:
            break
    out = tally(outcomes)
    out["wall_s"] = statistics.median(walls)
    out["batches"] = len(walls)
    out["report"] = wl.report(outcomes, sum(walls))
    out["report"]["fail_share"] = (out["failed"] / out["attempted"], "share")
    return out


def trace_hooks() -> dict:
    def on_eecap(tr, args, sol):
        tr.counters["solver.solves"] += 1
        tr.counters["solver.iterations"] += sol.iterations
        tr.counters[f"solver.variant.{sol.variant_used}"] += 1
        tr.counters["solver.cap_hits"] += not sol.converged

    def on_feasibility(tr, args, result):
        tr.counters["solver.feasibility_stage.infeasible"] += not result[2]

    def on_cost_model(tr, args, result):
        # Frozen dataclasses hash by value: equal models built twice share a key.
        tr.distinct.add(args)

    def on_simulate(tr, args, report):
        m, n = report.num_slots, len(args[1])
        tr.counters["simulate.slot_nodes"] += m * n
        # float64 transmit draws and their boolean mask per slot and node,
        # plus one float64 delivery draw per slot
        tr.counters["simulate.bytes_computed"] += 9 * m * n + 8 * m

    return {"solver.eecap": on_eecap, "solver.feasibility_stage": on_feasibility,
            "costs.cost_model": on_cost_model, "simulate.simulate": on_simulate}


def layer_metrics(tr) -> dict:
    """The per-layer metrics from a tracer's spans and counters."""
    t = tr.totals()
    f = t["func"]

    def get(name, kind):  # 0 for a function the program no longer has
        return float(f[kind][tr.fid(name)]) if name in tr.names else 0.0

    m = {f"{layer}.self_s": (float(v), "s") for layer, v in t["layer_self_s"].items()}
    for name in ("costs.cost_model", "access.state_probs", "access.linear_coeffs",
                 "network.evaluate", "network.cost", "network.make_node",
                 "network.build_network", "metrics.tau_min_for_rate",
                 "metrics.nt_opt_for_throughput", "metrics.throughput",
                 "phy.segment_probs", "phy.bit_error_prob", "channel.link_budget"):
        m[f"{name}.calls"] = (int(get(name, "calls")), "count")
    calls = m["costs.cost_model.calls"][0]
    distinct = len(tr.distinct)
    m["costs.cost_model.distinct_share"] = (distinct / calls if calls else 0.0, "share")
    m["network.evaluate.self_s"] = (get("network.evaluate", "self_s"), "s")
    m["network.build_network.s"] = (get("network.build_network", "s"), "s")
    for name in ("solver.feasibility_stage", "solver.solve_dual", "solver.solve_logthr",
                 "simulate.simulate", "scenario.load_scenario", "scenario.network"):
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["solver.solve_dual.self_s"] = (get("solver.solve_dual", "self_s"), "s")
    m["simulate.estimates.s"] = (get("simulate.rate_estimate", "s")
                                 + get("simulate.efficiency_estimate", "s"), "s")
    c = tr.counters
    solves = c["solver.solves"]
    evaluate_in_solver = (tr.calls_from("network.evaluate", "solver")
                          if "network.evaluate" in tr.names else 0)
    m["solver.feasibility_stage.infeasible"] = (c["solver.feasibility_stage.infeasible"], "count")
    m["solver.iterations"] = (c["solver.iterations"], "count")
    m["solver.evaluate_per_solve"] = (evaluate_in_solver / solves if solves else 0.0, "calls/solve")
    m["solver.cap_hit_share"] = (c["solver.cap_hits"] / solves if solves else 0.0, "share")
    for variant in ("EE", "LogEE", "LogTHR"):
        m[f"solver.variant.{variant}"] = (c[f"solver.variant.{variant}"], "count")
    m["simulate.slot_nodes"] = (c["simulate.slot_nodes"], "count")
    m["simulate.bytes_computed"] = (c["simulate.bytes_computed"], "bytes")
    return m


def child_trace(eecap, workloads, args, ref) -> dict:
    import numpy as np
    from layertrace import LayerTracer
    tracer = LayerTracer(eecap, trace_hooks())
    with tracer:
        wl = workloads.WORKLOADS[args.workload](args.seed, ref)
    print("READY", flush=True)
    ops = [op for op in wl.batch(0) if op.traced]
    outcomes = []
    results, untraced = run_ops(ops)
    check_ops(wl, ops, results, outcomes)
    bounds, traced_results = [], []
    with tracer:
        t0 = time.perf_counter()
        for op in ops:
            lo = len(tracer)
            traced_results += run_ops([op])[0]
            bounds.append((lo, len(tracer)))
        traced = time.perf_counter() - t0
    traced_outcomes = []
    check_ops(wl, ops, traced_results, traced_outcomes)
    # Untraced again, now that the process is as warm as for the traced pass.
    results, untraced_after = run_ops(ops)
    check_ops(wl, ops, results, traced_outcomes)
    untraced = min(untraced, untraced_after)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(tracer), "count")

    # Self-check: the program is deterministic, so replaying operations under
    # a fresh tracer must reproduce their call counts exactly.
    replay = LayerTracer(eecap, trace_hooks())
    mismatched = 0
    seen = set()
    for op, (lo, hi) in zip(ops, bounds):
        if op.stratum in seen:
            continue
        seen.add(op.stratum)
        start = len(replay)
        with replay:
            run_ops([op])
        mismatched += replay.calls(start) != tracer.calls(lo, hi)
    metrics["trace.selfcheck_mismatches"] = (mismatched, "count")

    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{args.workload}.npz",
                        names=np.array(tracer.names), layers=np.array(tracer.layer_ids),
                        **tracer.arrays())
    out = tally(outcomes)
    out["correct"] = out["correct"] and tally(traced_outcomes)["correct"] and mismatched == 0
    out["metrics"] = metrics
    return out


def child_main(args) -> int:
    eecap = import_eecap()
    sys.path.insert(0, str(HERE))
    import workloads
    ref = workloads.load_reference()
    if args.role == "trace":
        out = child_trace(eecap, workloads, args, ref)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, ref)
        print("READY", flush=True)
        if args.role == "probe":
            return 0
        out = child_measure(wl, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------- parent side

def spawn(args, role: str) -> tuple[float, dict | None, object]:
    """Run one child; its set-up time, its result and its resource usage."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    # os.kill, not proc.kill: Popen would reap the child before os.wait4 sees it.
    kill = functools.partial(os.kill, proc.pid, signal.SIGKILL)
    timer = threading.Timer(args.seconds + CHILD_GRACE_S, kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    except BaseException:
        kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != "READY":
        raise SystemExit(f"error: {role} child exited with code {proc.returncode}")
    result = json.loads(lines[-1]) if role != "probe" else None
    return ready_s, result, usage


def print_report(workload: str, metrics: dict, result: dict) -> None:
    print(f"# eecap benchmark, workload {workload}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}  reasons {result['reasons']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child_main(args)
    if not (SRC / "eecap" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no eecap source tree at {ROOT}", file=sys.stderr)
        return 2
    if args.trace:
        _, result, _ = spawn(args, "trace")
        metrics = {k: tuple(v) for k, v in result["metrics"].items()}
        print_report(args.workload, metrics, result)
    else:
        setups = [spawn(args, "probe")[0] for _ in range(SETUP_SAMPLES - 1)]
        ready_s, result, usage = spawn(args, "measure")
        setups.append(ready_s)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (result["wall_s"], "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
        report = {k: tuple(v) for k, v in result["report"].items()}
        print_report(args.workload, {**metrics, **report}, result)
        print(f"batches {result['batches']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
