"""The benchmark's workloads: their inputs, timed operations and output checks.

Each workload is built from the workload seed and the committed reference
data, then hands out batches of operations.  An operation is one call into
eecap (a solve, a CLI command, a Monte Carlo validation); the runner times
the calls and passes their results back here to be checked.

Failure classes.  Every operation that fails a check counts as failed.  The
classes in ``FAILED_ONLY`` do not mark the run incorrect: two known solver
defects the benchmark keeps in its data on purpose, and the statistical
|z| > 4 gate.  Every other failure also marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import eecap
import eecap.cli

# The package re-exports the function simulate under the submodule's name.
SIM = importlib.import_module("eecap.simulate")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE = HERE / "reference.json"

# Solver acceptance thresholds, as in eecap.solver and acceptance criterion 6.
BUDGET_SLACK = 1e-9
RATE_SLACK = 1e-4
QUALITY_TOL = 0.02
Z_LIMIT = 4.0
# |z| beyond this is a gross model or simulator error, not sampling noise.
Z_GROSS = 8.0

# "fallback" and "infeasible": a provably feasible network solved by the
# LogTHR fallback (the feasibility stage misses a feasible point) or reported
# infeasible, as the reference run did too.  "z gate": a correct simulator
# exceeds |z| = 4 on one of the ~40 checks of a run with probability about 3e-3.
FAILED_ONLY = frozenset({"fallback", "infeasible", "z gate"})

LADDER_SIZES = (2, 4, 8, 16)
LADDER_POOL = {2: 32, 4: 32, 8: 32, 16: 16}
# Solves per batch for each (n, objective), sized so that three batches fit
# in a 40 s run and its median batch time resists short bursts of host noise.
# LogEE stops at n = 8 because one LogEE solve at n = 16 takes 20-30 s.
LADDER_BATCH = {
    (2, "EE"): 4, (2, "LogEE"): 2,
    (4, "EE"): 4, (4, "LogEE"): 2,
    (8, "EE"): 4, (8, "LogEE"): 4,
    (16, "EE"): 2,
}
# Successive batches move each class's sampling offset by the golden ratio,
# so a run's batches cover a class's members evenly.
_GOLDEN = (5 ** 0.5 - 1) / 2

# The shipped CLI commands a user runs; 33 solves per pass.
SWEEP_COMMANDS = (
    ("solve EE", ["solve", "--scenario", "two_node_1m.ini"]),
    ("solve LogEE", ["solve", "--scenario", "two_node_1m.ini", "--objective", "logee"]),
    ("sweep nodes", ["sweep", "--scenario", "nodes_sweep.ini", "--axis", "nodes",
                     "--from", "2", "--to", "10"]),
    ("sweep rate", ["sweep", "--scenario", "two_node_1m.ini", "--axis", "rate",
                    "--from", "2e5", "--to", "2.4e6", "--steps", "12"]),
    ("sweep distance", ["sweep", "--scenario", "distance_sweep.ini", "--axis", "distance",
                        "--from", "1", "--to", "10", "--steps", "10"]),
)

MC_FIXED_SCENARIO = "two_node_1m_fixed.ini"
MC_FIXED_SLOTS = 1_000_000
MC_SEEDED_NODES = 16
MC_SEEDED_SLOTS = 4_000_000


@dataclass
class Op:
    """One timed call into eecap and what is needed to check its result."""

    stratum: str
    call: Callable[[], Any]
    info: dict = field(default_factory=dict)
    items: int = 1      # outputs checked, each attempted once
    traced: bool = True  # part of the traced run's work


@dataclass
class Outcome:
    """Checked result of one operation."""

    seconds: float
    attempted: int = 1
    failures: list = field(default_factory=list)   # reasons; at most one per item counts
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv: list) -> tuple[int, str, str]:
    """eecap.cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eecap.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def scenario_argv(argv: list) -> list:
    """Resolve the scenario file name in a command against the scenarios directory."""
    argv = list(argv)
    i = argv.index("--scenario") + 1
    argv[i] = str(SCENARIOS / argv[i])
    return argv


def per_node_objective(variant: str, n: int, value: float) -> float:
    """Objective on a per-node scale: a sum for EE, a geometric mean for the log objectives."""
    if variant == eecap.VARIANT_EE:
        return value
    return math.exp(value / n)


def shortfall(value: float, reference: float) -> float:
    return (reference - value) / abs(reference)


def _sol_faults(net, sol) -> list:
    """Invariants every returned point must hold."""
    faults = []
    if math.fsum(sol.tau_opt) > 1.0 + BUDGET_SLACK or any(not 0.0 <= t <= 1.0 for t in sol.tau_opt):
        faults.append("budget")
    phy = net.phy
    if any(nt % phy.n or not phy.n_t_min <= nt <= phy.n_t_max for nt in sol.nt_opt):
        faults.append("grid")
    if sol.feasible and any(r < nm.r_min * (1.0 - RATE_SLACK) for r, nm in zip(sol.rates, net.nodes)):
        faults.append("feasible flag")
    return faults


def allocate(sizes: dict, total: int) -> dict:
    """Split total picks over classes in proportion to their sizes, at least one each."""
    pool = sum(sizes.values())
    quotas = {c: total * size / pool for c, size in sizes.items()}
    counts = {c: max(1, int(q)) for c, q in quotas.items()}
    for c in sorted(quotas, key=lambda c: int(quotas[c]) - quotas[c]):
        if sum(counts.values()) >= total:
            break
        counts[c] += 1
    return counts


class SolveLadder:
    """Seeded random networks at n = 2, 4, 8, 16 solved through eecap.eecap().

    The reference pool holds, per n, networks with distances uniform in
    [1, 6] m and every rate target u in [0.2, 0.8] times the node's rate at
    tau = 0.5/n, n_t = 2646, so every network is provably feasible.

    The workload seed draws which pool networks each batch solves, stratified
    so that batches stay comparable: within each (n, objective), the pool
    splits by the variant the reference run returned (the requested one, or
    the LogTHR fallback of the feasibility defect), each class gets picks in
    proportion to its size and at least one, and the picks within a class
    are a systematic sample, from a seeded offset, of its members ordered by
    reference solve time.  The traced run solves the first pick of each class.
    """

    name = "solve_ladder"

    def __init__(self, seed: int, ref: dict):
        self.rng = random.Random(seed)
        self.pool = {}
        for n in LADDER_SIZES:
            entries = ref["solve_ladder"][str(n)]
            self.pool[n] = [(e, eecap.build_network(e["d"], e["r_min"])) for e in entries]
        self.classes = {}
        for (n, objective), total in LADDER_BATCH.items():
            members = {}
            for i, (entry, _) in enumerate(self.pool[n]):
                members.setdefault(entry[objective]["variant"] == objective, []).append(i)
            for ids in members.values():
                ids.sort(key=lambda i: self.pool[n][i][0][objective]["seconds"])
            counts = allocate({ok: len(ids) for ok, ids in members.items()}, total)
            # fallback class first: the trace self-check replays a stratum's first solve
            self.classes[n, objective] = [(members[ok], counts[ok], self.rng.random())
                                          for ok in sorted(members)]

    def batch(self, index: int) -> list:
        ops = []
        for (n, objective), classes in self.classes.items():
            cfg = eecap.SolverConfig(objective=objective)
            for ids, count, start in classes:
                offset = (start + index * _GOLDEN) % 1.0
                for j in range(count):
                    entry, net = self.pool[n][ids[int((j + offset) * len(ids) / count)]]
                    ops.append(Op(f"n{n} {objective}",
                                  lambda net=net, cfg=cfg: eecap.eecap(net, cfg),
                                  {"n": n, "objective": objective, "entry": entry, "net": net},
                                  traced=j == 0))
        return ops

    def check(self, op: Op, sol, seconds: float) -> Outcome:
        n, objective, entry, net = (op.info[k] for k in ("n", "objective", "entry", "net"))
        out = Outcome(seconds, values={"n": n})
        ref = entry[objective]
        out.failures += _sol_faults(net, sol)
        # The known defects only where the reference run shows them too.
        if sol.variant_used != objective:
            out.failures.append("fallback" if ref["variant"] != objective else "new fallback")
        if not sol.feasible:
            out.failures.append("infeasible" if not ref["feasible"] else "lost feasibility")
        out.values["cap_hit"] = not sol.converged
        if objective == eecap.VARIANT_EE and "grid_ee" in entry and sol.variant_used == objective:
            gap = abs(sol.objective_value - entry["grid_ee"]) / entry["grid_ee"]
            out.values["grid_gap"] = gap
            if gap > QUALITY_TOL:
                out.failures.append("grid gap")
        if sol.variant_used == objective == ref["variant"]:
            short = shortfall(per_node_objective(objective, n, sol.objective_value),
                              per_node_objective(objective, n, ref["objective"]))
            out.values["shortfall"] = short
            if short > QUALITY_TOL:
                out.failures.append("objective shortfall")
        return out

    @staticmethod
    def report(outcomes: list, elapsed: float) -> dict:
        solves = len(outcomes)
        rep = {"solves_per_s": (solves / elapsed, "1/s")}
        for n in LADDER_SIZES:
            times = [o.seconds for o in outcomes if o.values["n"] == n]
            rep[f"solve_s.n{n}"] = (statistics.median(times), "s")
        rep["cap_hit_share"] = (sum(o.values["cap_hit"] for o in outcomes) / solves, "share")
        rep["grid_gap_max"] = (max(o.values.get("grid_gap", 0.0) for o in outcomes), "share")
        rep["objective_shortfall_max"] = (
            max(o.values.get("shortfall", 0.0) for o in outcomes), "share")
        return rep


def _csv_rows(text: str) -> list:
    return [line.split(",") for line in text.strip().splitlines()]


def _solve_points(rows: list) -> list:
    """(variant, feasible, objective, tau_sum, payloads) of a `solve` CSV."""
    fields = dict(item.split("=") for item in rows[-1][1:])
    nodes = rows[1:-1]
    variant = fields["variant"]
    n = len(nodes)
    if variant == eecap.VARIANT_EE:
        objective = math.fsum(float(r[7]) for r in nodes)
    else:
        column = 7 if variant == eecap.VARIANT_LOGEE else 6
        objective = math.exp(math.fsum(math.log(float(r[column])) for r in nodes) / n)
    return [(variant, fields["feasible"] == "1", objective,
             float(fields["sum_tau"]), [int(r[5]) for r in nodes])]


def _sweep_points(rows: list) -> list:
    """Per sweep point: sum_eta is the objective of EE points; LogTHR points
    are compared on sum_rate, since the CSV does not list every node's rate."""
    points = []
    for r in rows[1:]:
        variant = r[3]
        objective = float(r[8] if variant == eecap.VARIANT_EE else r[7])
        points.append((variant, r[4] == "1", objective, float(r[6]), [int(r[12]), int(r[13])]))
    return points


class Sweeps:
    """The shipped solve and sweep commands through eecap.cli.main, in-process.

    The workload seed does not apply: the commands and scenarios are fixed.
    """

    name = "sweeps"

    def __init__(self, seed: int, ref: dict):
        self.reference = ref["sweeps"]
        self.commands = [(label, scenario_argv(argv)) for label, argv in SWEEP_COMMANDS]
        for _, argv in self.commands:
            eecap.load_scenario(argv[argv.index("--scenario") + 1]).network()
        self.phy = eecap.PhyConfig()

    def batch(self, index: int) -> list:
        return [Op(label.split()[0], lambda argv=argv: run_cli(argv), {"label": label},
                   items=len(self._points(label, self.reference[label])))
                for label, argv in self.commands]

    def _points(self, label: str, text: str) -> list:
        rows = _csv_rows(text)
        return _solve_points(rows) if label.startswith("solve") else _sweep_points(rows)

    def check(self, op: Op, result, seconds: float) -> Outcome:
        label = op.info["label"]
        code, stdout, stderr = result
        ref_text = self.reference[label]
        ref_points = self._points(label, ref_text)
        out = Outcome(seconds, attempted=len(ref_points))
        out.values["identical"] = stdout == ref_text
        if code != 0:
            out.failures += ["exit code"] * len(ref_points)
            return out
        try:
            points = self._points(label, stdout)
        except (ValueError, KeyError, IndexError):
            points = []
        if len(points) != len(ref_points):
            out.failures += ["csv shape"] * len(ref_points)
            return out
        iterations = [int(word.split("=")[1]) for word in stderr.split() if word.startswith("iterations=")]
        out.values["cap_hits"] = sum(it >= eecap.SolverConfig().max_outer_iters for it in iterations)
        shorts = []
        for (variant, feasible, objective, tau_sum, nts), (rvar, rfeas, robj, _, _) in zip(points, ref_points):
            reasons = []
            if tau_sum > 1.0 + BUDGET_SLACK:
                reasons.append("budget")
            if any(nt % self.phy.n or not self.phy.n_t_min <= nt <= self.phy.n_t_max for nt in nts):
                reasons.append("grid")
            if (rfeas and not feasible) or (rvar != eecap.VARIANT_LOGTHR and variant == eecap.VARIANT_LOGTHR):
                reasons.append("lost feasibility")
            if variant == rvar:
                shorts.append(shortfall(objective, robj))
                if shorts[-1] > QUALITY_TOL:
                    reasons.append("objective shortfall")
            out.failures += reasons[:1]
        out.values["shortfall"] = max(shorts, default=0.0)
        return out

    @staticmethod
    def report(outcomes: list, elapsed: float) -> dict:
        solves = sum(o.attempted for o in outcomes)
        return {
            "solves_per_s": (solves / elapsed, "1/s"),
            "cap_hit_share": (sum(o.values.get("cap_hits", 0) for o in outcomes) / solves, "share"),
            "objective_shortfall_max": (max(o.values.get("shortfall", 0.0) for o in outcomes), "share"),
            "csv_identical_share": (sum(o.values["identical"] for o in outcomes) / len(outcomes), "share"),
        }


def mc_seeded_point(seed: int) -> tuple:
    """Distances, access probabilities and payload sizes of the seeded 16-node point."""
    rng = random.Random(f"montecarlo/{seed}")
    n = MC_SEEDED_NODES
    grid = list(eecap.PhyConfig().nt_grid())
    d = [rng.uniform(1.0, 6.0) for _ in range(n)]
    tau = [rng.uniform(0.2, 0.8) / n for _ in range(n)]
    nts = [rng.choice(grid) for _ in range(n)]
    return d, tau, nts


def validate(net, tau, nts, slots: int, seed: int) -> dict:
    """Monte Carlo validation of one fixed operating point, as `eecap validate` does."""
    sp, rates, etas = eecap.evaluate(net, tau, nts)
    report = eecap.simulate(net, tau, nts, eecap.SimConfig(num_slots=slots, seed=seed))
    zs = []
    for p_hat, p in ((report.p_success, sp.p_success), (report.p_collision, sp.p_collision),
                     (report.p_idle, sp.p_idle)):
        se = math.sqrt(p * (1.0 - p) / report.num_slots)
        zs.append(SIM.z_score(p_hat, se, p))
    for k in range(net.n_nodes):
        cost = net.cost(k, nts[k])
        est, se = eecap.rate_estimate(report, k, nts[k], cost)
        zs.append(SIM.z_score(est, se, rates[k]))
        est, se = eecap.efficiency_estimate(report, k, nts[k], cost)
        zs.append(SIM.z_score(est, se, etas[k]))
    return {"zs": zs, "slots": report.num_slots}


class MonteCarlo:
    """simulate plus the rate and efficiency estimators at fixed operating points.

    The shipped two_node_1m_fixed point at 1M slots (seed 0, as criterion 7
    runs it) and a 16-node point drawn from the workload seed at 4M slots,
    simulated with the workload seed.  No solver runs here.
    """

    name = "montecarlo"

    def __init__(self, seed: int, ref: dict):
        scn = eecap.load_scenario(str(SCENARIOS / MC_FIXED_SCENARIO))
        d, tau, nts = mc_seeded_point(seed)
        self.points = [
            ("n2", scn.network(), scn.tau, scn.nts, MC_FIXED_SLOTS, 0),
            (f"n{MC_SEEDED_NODES}", eecap.build_network(d, [0.0] * len(d)), tau, nts,
             MC_SEEDED_SLOTS, seed),
        ]
        self.first = {}

    def batch(self, index: int) -> list:
        return [Op(label, lambda p=(net, tau, nts, slots, seed): validate(*p), {"label": label})
                for label, net, tau, nts, slots, seed in self.points]

    def check(self, op: Op, result, seconds: float) -> Outcome:
        out = Outcome(seconds, values={"slots": result["slots"]})
        worst = max(abs(z) for z in result["zs"])
        out.values["max_abs_z"] = worst
        first = self.first.setdefault(op.info["label"], result["zs"])
        if first != result["zs"]:
            out.failures.append("not deterministic")
        elif worst > Z_GROSS:
            out.failures.append("gross z")
        elif worst > Z_LIMIT:
            out.failures.append("z gate")
        return out

    @staticmethod
    def report(outcomes: list, elapsed: float) -> dict:
        return {
            "slots_per_s": (sum(o.values["slots"] for o in outcomes) / elapsed, "1/s"),
            "max_abs_z": (max(o.values["max_abs_z"] for o in outcomes), "z"),
        }


WORKLOADS = {w.name: w for w in (SolveLadder, Sweeps, MonteCarlo)}
