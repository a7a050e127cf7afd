"""Command-line front end: single solves, figure-style sweeps, and
Monte-Carlo validation, all emitting deterministic CSV on standard output.

Exit codes: 0 success, 1 missing scenario file, 2 invalid configuration
or arguments, 3 validation z-gate failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .network import NetworkModel, evaluate
from .scenario import _OBJECTIVE_NAMES, Scenario, ScenarioError, load_scenario
from .simulate import SimConfig, efficiency_estimate, rate_estimate, simulate, z_score
from .solver import eecap

EXIT_OK = 0
EXIT_MISSING_FILE = 1
EXIT_INVALID = 2
EXIT_ZGATE = 3

_Z_LIMIT = 4.0

SOLVE_HEADER = "kind,index,d,r_min,tau,n_t,rate,efficiency"
SWEEP_HEADER = ("axis,value,n_nodes,variant,feasible,n_cpb,sum_tau,sum_rate,sum_eta,"
                "min_tau,max_tau,tau_0,min_nt,max_nt,nt_0,rate_0,eta_0")
VALIDATE_HEADER = "metric,node,analytic,estimate,stderr,z,slots,seed"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _apply_objective(scn: Scenario, flag: Optional[str]) -> Scenario:
    if flag is None:
        return scn
    return replace(scn, solver=replace(scn.solver, objective=_OBJECTIVE_NAMES[flag]))


def _node_rows(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
               rates: Sequence[float], etas: Sequence[float]) -> list[str]:
    rows = []
    for k, nm in enumerate(net.nodes):
        rows.append(",".join([
            "node", str(k), _fmt(nm.d), _fmt(nm.r_min), _fmt(tau[k]),
            str(nts[k]), _fmt(rates[k]), _fmt(etas[k]),
        ]))
    return rows


def _summary_row(variant: str, feasible: bool, iterations: int, converged: bool,
                 tau: Sequence[float], rates: Sequence[float], etas: Sequence[float]) -> str:
    return ",".join([
        "summary",
        f"variant={variant}",
        f"feasible={int(feasible)}",
        f"iterations={iterations}",
        f"sum_tau={_fmt(math.fsum(tau))}",
        f"converged={int(converged)}",
        f"sum_rate={_fmt(math.fsum(rates))}",
        f"sum_eta={_fmt(math.fsum(etas))}",
    ])


def cmd_solve(args: argparse.Namespace) -> int:
    scn = _apply_objective(load_scenario(args.scenario), args.objective)
    net = scn.network()
    if scn.tau is not None:
        assert scn.nts is not None
        _, rates, etas = evaluate(net, scn.tau, scn.nts)
        lines = [SOLVE_HEADER]
        lines += _node_rows(net, scn.tau, scn.nts, rates, etas)
        lines.append(_summary_row("eval", True, 0, True, scn.tau, rates, etas))
        print("evaluated fixed access probabilities; no solve", file=sys.stderr)
    else:
        sol = eecap(net, scn.solver)
        lines = [SOLVE_HEADER]
        lines += _node_rows(net, sol.tau_opt, sol.nt_opt, sol.rates, sol.efficiencies)
        lines.append(_summary_row(sol.variant_used, sol.feasible, sol.iterations,
                                  sol.converged, sol.tau_opt, sol.rates, sol.efficiencies))
        print(f"variant={sol.variant_used} iterations={sol.iterations} "
              f"converged={sol.converged}", file=sys.stderr)
    print("\n".join(lines))
    return EXIT_OK


def _sweep_values(args: argparse.Namespace) -> list[float]:
    for flag, bound in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(bound):
            raise ScenarioError(f"sweep {flag} must be finite, got {bound}")
    if args.axis == "nodes":
        lo, hi = int(args.start), int(args.stop)
        if lo != args.start or hi != args.stop:
            raise ScenarioError("sweep over nodes requires integer --from/--to")
        if lo < 1 or hi < lo:
            raise ScenarioError("sweep over nodes requires 1 <= from <= to")
        return [float(v) for v in range(lo, hi + 1)]
    steps = args.steps if args.steps is not None else 10
    if steps < 1:
        raise ScenarioError("--steps must be at least 1")
    if steps == 1:
        if args.start != args.stop:
            raise ScenarioError("--steps 1 requires --from == --to")
        return [args.start]
    if args.stop < args.start:
        raise ScenarioError("--to must not be below --from")
    span = args.stop - args.start
    return [args.start + span * i / (steps - 1) for i in range(steps)]


def _sweep_point(scn: Scenario, axis: str, value: float) -> Scenario:
    if axis == "nodes":
        m = int(value)
        return scn.with_nodes((scn.distances[0],) * m, (scn.r_mins[0],) * m)
    if axis == "rate":
        if scn.r_mins[0] <= 0.0:
            raise ScenarioError("rate sweep requires a positive r_min for node 0")
        factor = value / scn.r_mins[0]
        return scn.with_nodes(scn.distances, tuple(r * factor for r in scn.r_mins))
    return scn.with_nodes((value,) * len(scn.distances), scn.r_mins)


def cmd_sweep(args: argparse.Namespace) -> int:
    scn = _apply_objective(load_scenario(args.scenario), args.objective)
    lines = [SWEEP_HEADER]
    for value in _sweep_values(args):
        point = _sweep_point(scn, args.axis, value)
        net = point.network()
        sol = eecap(net, point.solver)
        lines.append(",".join([
            args.axis, _fmt(value), str(net.n_nodes), sol.variant_used,
            str(int(sol.feasible)), str(net.nodes[0].link.n_cpb),
            _fmt(math.fsum(sol.tau_opt)), _fmt(math.fsum(sol.rates)),
            _fmt(math.fsum(sol.efficiencies)),
            _fmt(min(sol.tau_opt)), _fmt(max(sol.tau_opt)), _fmt(sol.tau_opt[0]),
            str(min(sol.nt_opt)), str(max(sol.nt_opt)), str(sol.nt_opt[0]),
            _fmt(sol.rates[0]), _fmt(sol.efficiencies[0]),
        ]))
        print(f"sweep {args.axis}={_fmt(value)}: variant={sol.variant_used} "
              f"iterations={sol.iterations} converged={sol.converged}", file=sys.stderr)
    print("\n".join(lines))
    return EXIT_OK


def _state_z(p_hat: float, p: float, m: int) -> tuple[float, float]:
    var = p * (1.0 - p) / m
    se = math.sqrt(var)
    return se, z_score(p_hat, se, p)


def cmd_validate(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    if scn.tau is None:
        raise ScenarioError("[nodes] tau: required for validate (fixed access probabilities)")
    assert scn.nts is not None
    sim_cfg = SimConfig(num_slots=args.slots, seed=args.seed)
    net = scn.network()
    sp, rates, etas = evaluate(net, scn.tau, scn.nts)
    report = simulate(net, scn.tau, scn.nts, sim_cfg)

    tail = f"{args.slots},{args.seed}"
    lines = [VALIDATE_HEADER]
    zs = []
    for name, analytic, empirical in (("p_success", sp.p_success, report.p_success),
                                      ("p_collision", sp.p_collision, report.p_collision),
                                      ("p_idle", sp.p_idle, report.p_idle)):
        se, z = _state_z(empirical, analytic, report.num_slots)
        zs.append(z)
        lines.append(f"{name},,{_fmt(analytic)},{_fmt(empirical)},{_fmt(se)},{_fmt(z)},{tail}")
    for k in range(net.n_nodes):
        cost = net.cost(k, scn.nts[k])
        est, se = rate_estimate(report, k, scn.nts[k], cost)
        z = z_score(est, se, rates[k])
        zs.append(z)
        lines.append(f"rate,{k},{_fmt(rates[k])},{_fmt(est)},{_fmt(se)},{_fmt(z)},{tail}")
        est, se = efficiency_estimate(report, k, scn.nts[k], cost)
        z = z_score(est, se, etas[k])
        zs.append(z)
        lines.append(f"efficiency,{k},{_fmt(etas[k])},{_fmt(est)},{_fmt(se)},{_fmt(z)},{tail}")
    print("\n".join(lines))
    worst = max(abs(z) for z in zs)
    print(f"max |z| = {_fmt(worst)} over {len(zs)} checks", file=sys.stderr)
    if not worst <= _Z_LIMIT:
        print(f"error: z-gate failed (|z| > {_Z_LIMIT})", file=sys.stderr)
        return EXIT_ZGATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eecap",
        description="Energy-efficient channel access optimization for IR-UWB "
                    "body-area networks: solve, sweep, validate.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one scenario (or evaluate fixed tau)")
    ps.add_argument("--scenario", required=True, help="path to a scenario INI file")
    ps.add_argument("--objective", choices=sorted(_OBJECTIVE_NAMES),
                    help="override the scenario's solver objective")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="solve across a parameter axis")
    pw.add_argument("--scenario", required=True, help="path to a scenario INI file")
    pw.add_argument("--axis", required=True, choices=("nodes", "rate", "distance"))
    pw.add_argument("--from", dest="start", type=float, required=True)
    pw.add_argument("--to", dest="stop", type=float, required=True)
    pw.add_argument("--steps", type=int, default=None,
                    help="number of sweep points (ignored for --axis nodes)")
    pw.add_argument("--objective", choices=sorted(_OBJECTIVE_NAMES),
                    help="override the scenario's solver objective")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("validate", help="Monte Carlo check of the analytic models")
    pv.add_argument("--scenario", required=True, help="scenario with fixed tau and n_t")
    pv.add_argument("--slots", type=int, default=1_000_000)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValueError as exc:   # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
