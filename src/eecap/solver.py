"""Joint optimization of access probabilities and payload sizes.

The solver first runs a feasibility stage that alternates the closed-form
minimum access probability and the throughput-optimal payload size per
node.  If the rate targets are jointly reachable, a dual-decomposition
stage maximizes the chosen efficiency objective (sum or sum-of-logs) with
clamped multiplier updates; otherwise a sum-log-throughput fallback drops
the rate constraints and keeps only the access-budget constraint.

Because the raw multiplier iteration is not guaranteed to settle, every
iterate (raw, rate-repaired, and payload-polished) is scored against the
constraints and the best scoring point seen anywhere is returned, never
the last iterate blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .access import _affine, _product_except, state_probs
from .metrics import _nt_opt
from .network import NetworkModel, evaluate

VARIANT_EE = "EE"
VARIANT_LOGEE = "LogEE"
VARIANT_LOGTHR = "LogTHR"

_OBJECTIVES = (VARIANT_EE, VARIANT_LOGEE)
_RATE_SLACK = 1e-4        # relative slack when accepting a candidate's rates
_SUM_SLACK = 1e-9         # absolute slack on the access-probability budget
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN = 64


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; the defaults match the shipped calibration."""

    objective: str = VARIANT_EE
    max_outer_iters: int = 200
    max_feasibility_iters: int = 50
    convergence_tol: float = 1e-6
    inner_search_tol: float = 1e-5
    multiplier_scale: float = 1.0
    init_tau: float = 0.01

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}, got {self.objective!r}")
        if self.max_outer_iters < 1 or self.max_feasibility_iters < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.convergence_tol <= 0.0:
            raise ValueError("convergence_tol must be positive")
        if not 0.0 < self.inner_search_tol < 0.5:
            raise ValueError("inner_search_tol must lie in (0, 0.5)")
        if self.multiplier_scale <= 0.0:
            raise ValueError("multiplier_scale must be positive")
        if not 0.0 < self.init_tau < 1.0:
            raise ValueError("init_tau must lie in (0, 1)")


@dataclass(frozen=True)
class Solution:
    """Best point found, with multipliers, per-iteration trace and metrics."""

    tau_opt: tuple[float, ...]
    nt_opt: tuple[int, ...]
    lambdas: tuple[float, ...]
    mu: float
    variant_used: str
    trace: tuple[float, ...]
    feasible: bool
    converged: bool
    objective_value: float
    rates: tuple[float, ...]
    efficiencies: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _objective_value(variant: str, rates: Sequence[float], etas: Sequence[float]) -> float:
    if variant == VARIANT_EE:
        return math.fsum(etas)
    values = etas if variant == VARIANT_LOGEE else rates
    total = 0.0
    for v in values:
        if v <= 0.0:
            return -math.inf
        total += math.log(v)
    return total


class _Profile:
    """Fast evaluation of the Lagrangian as a function of one node's tau.

    With the other access probabilities held fixed, every node's rate and
    efficiency is a ratio of affine functions of tau_k, so one profile
    build allows O(n_nodes) evaluation per search point.
    """

    def __init__(self, net: NetworkModel, tau: Sequence[float], nts: Sequence[int], k: int):
        self.k = k
        self.r_min = [row.r_min for row in net.rows]
        self.tau_rest = math.fsum(tau) - tau[k]
        x_s, x_c, x_i, y_s, y_c, y_i = _affine(tau, k)
        own = _product_except(tau, (k,))
        n_cw = net.phy.n
        self.num_coeff = []      # numerator scale per node
        self.xt = []             # slope and intercept of the duration denominator
        self.yt = []
        self.xe = []             # slope and intercept of the energy denominator
        self.ye = []
        for j, row in enumerate(net.rows):
            n_t = nts[j]
            t_s, t_c, e_s, e_c = row.costs(n_t)
            p_frame = row.p_shr * row.p_cw ** (n_t // n_cw) * row.p_phr
            if j == k:
                kj = n_t * p_frame * own
            else:
                kj = n_t * p_frame * tau[j] * _product_except(tau, (j, k))
            self.num_coeff.append(kj)
            self.xt.append(x_s * t_s + x_c * t_c + x_i * row.t_idle)
            self.yt.append(y_s * t_s + y_c * t_c + y_i * row.t_idle)
            self.xe.append(x_s * e_s + x_c * e_c)
            self.ye.append(y_s * e_s + y_c * e_c)

    def metrics_at(self, t: float) -> tuple[list[float], list[float]]:
        rates = []
        etas = []
        k, rest = self.k, 1.0 - t
        for j, (c, xt, yt, xe, ye) in enumerate(zip(self.num_coeff, self.xt, self.yt,
                                                    self.xe, self.ye)):
            num = c * (t if j == k else rest)
            den_t = xt * t + yt
            rates.append(num / den_t if den_t > 0.0 else 0.0)
            den_e = xe * t + ye
            etas.append(num / den_e if den_e > 0.0 else 0.0)
        return rates, etas

    def lagrangian(self, t: float, variant: str, lambdas: Sequence[float], mu: float) -> float:
        total = 0.0
        k, rest = self.k, 1.0 - t
        if variant == VARIANT_LOGTHR:
            for j, (c, xt, yt) in enumerate(zip(self.num_coeff, self.xt, self.yt)):
                den_t = xt * t + yt
                r = c * (t if j == k else rest) / den_t if den_t > 0.0 else 0.0
                if r <= 0.0:
                    return -math.inf
                total += math.log(r)
        else:
            log_eta = variant == VARIANT_LOGEE
            for j, (c, xt, yt, xe, ye, lam, r_min) in enumerate(zip(
                    self.num_coeff, self.xt, self.yt, self.xe, self.ye, lambdas, self.r_min)):
                num = c * (t if j == k else rest)
                den_t = xt * t + yt
                r = num / den_t if den_t > 0.0 else 0.0
                den_e = xe * t + ye
                eta = num / den_e if den_e > 0.0 else 0.0
                if not log_eta:
                    total += eta
                elif eta > 0.0:
                    total += math.log(eta)
                else:
                    return -math.inf
                total += lam * (r - r_min)
        total += mu * (1.0 - self.tau_rest - t)
        return total


def _maximize_scalar(f: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bracketed 1-D maximization: coarse pre-scan, then golden-section.

    Returns the best point evaluated anywhere, which makes the search
    robust when the function is not unimodal on [lo, hi].
    """
    if hi <= lo:
        return lo, f(lo)
    best_x, best_f = lo, -math.inf

    def probe(x: float) -> float:
        nonlocal best_x, best_f
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
        return fx

    step = (hi - lo) / (_PRESCAN - 1)
    values = [probe(lo + i * step) for i in range(_PRESCAN)]
    i_best = max(range(_PRESCAN), key=lambda i: values[i])
    a = lo + max(i_best - 1, 0) * step
    b = lo + min(i_best + 1, _PRESCAN - 1) * step
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = probe(d)
    return best_x, best_f


def _throughput_payload(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
                        k: int, grid: Sequence[int]) -> int:
    """Throughput-optimal payload of node k, with the arithmetic of aggregate_terms.

    Only the payload split (to, tn) of the average slot duration matters
    here, so the affine split in tau_k is left out.
    """
    row = net.rows[k]
    n_t = nts[k]
    sp = state_probs(tau)
    t_s, t_c, _, _ = row.costs(n_t)
    bits_time = n_t * row.t_sym
    to = (sp.p_success * (t_s - bits_time) + sp.p_collision * (t_c - bits_time)
          + sp.p_idle * row.t_idle)
    tn = (sp.p_success + sp.p_collision) * row.t_sym
    return _nt_opt(row.p_cw, to, tn, grid, net.phy.n)


def feasibility_stage(net: NetworkModel, cfg: SolverConfig) -> tuple[tuple[float, ...], tuple[int, ...], bool]:
    """Alternate per-node minimum-tau and best-payload updates.

    Returns the fixed point and whether it meets every rate target with
    the access budget; a per-node infeasible signal ends the stage with
    feasible = False.
    """
    n = net.n_nodes
    grid = list(net.nt_grid())
    tau = [cfg.init_tau] * n
    nts = [net.phy.n_t_max] * n
    infeasible_hit = False
    for _ in range(cfg.max_feasibility_iters):
        prev_tau = tau[:]
        prev_nts = nts[:]
        for k, row in enumerate(net.rows):
            t = net.tau_min(k, tau, nts[k])
            if t is None:
                infeasible_hit = True
                break
            tau[k] = t
            nts[k] = _throughput_payload(net, tau, nts, k, grid)
        if infeasible_hit:
            break
        delta = max(
            max(abs(a - b) for a, b in zip(tau, prev_tau)),
            max(abs(a - b) for a, b in zip(nts, prev_nts)) / net.phy.n_t_max,
        )
        if delta < cfg.convergence_tol:
            break
    feasible = not infeasible_hit
    if feasible:
        _, rates, _ = evaluate(net, tau, nts, guard_zero_energy=True)
        for k, nm in enumerate(net.nodes):
            if rates[k] < nm.r_min * (1.0 - 1e-6):
                feasible = False
        if math.fsum(tau) > 1.0 + 1e-12:
            feasible = False
    return tuple(tau), tuple(nts), feasible


class _CandidatePool:
    """Tracks the best constraint-satisfying point seen during the search."""

    def __init__(self, net: NetworkModel, variant: str, enforce_rates: bool):
        self.net = net
        self.variant = variant
        self.enforce_rates = enforce_rates
        self.best_obj = -math.inf
        self.best: Optional[tuple[tuple[float, ...], tuple[int, ...]]] = None

    def accept(self, tau: Sequence[float], nts: Sequence[int]) -> bool:
        if math.fsum(tau) > 1.0 + _SUM_SLACK:
            return False
        if any(not 0.0 <= t <= 1.0 for t in tau):
            return False
        _, rates, etas = evaluate(self.net, tau, nts, guard_zero_energy=True)
        if self.enforce_rates:
            for k, nm in enumerate(self.net.nodes):
                if rates[k] < nm.r_min * (1.0 - _RATE_SLACK):
                    return False
        obj = _objective_value(self.variant, rates, etas)
        if obj > self.best_obj:
            self.best_obj = obj
            self.best = (tuple(tau), tuple(nts))
        return True


def _polish_payloads(net: NetworkModel, variant: str, tau: Sequence[float],
                     nts: Sequence[int], enforce_rates: bool) -> list[int]:
    """Per-node payload re-optimization that preserves rate feasibility.

    Each node's rate and efficiency depend on no other node's payload, so
    the scan decouples: pick the payload maximizing the node's objective
    term among those still meeting its rate target.
    """
    sp = state_probs(tau)
    p_s, p_c, p_i = sp.p_success, sp.p_collision, sp.p_idle
    n_cw = net.phy.n
    grid = list(net.nt_grid())
    out = list(nts)
    for k, row in enumerate(net.rows):
        p_k = sp.per_node_success[k]
        best_n = out[k]
        best_val = -math.inf
        for n_t in grid:
            t_s, t_c, e_s, e_c = row.costs(n_t)
            num = n_t * p_k * (row.p_hdr * row.p_cw ** (n_t // n_cw))
            r = num / (p_s * t_s + p_c * t_c + p_i * row.t_idle)
            if enforce_rates and r < row.r_min * (1.0 - 1e-6):
                continue
            if variant == VARIANT_LOGTHR:
                val = r
            else:
                den_e = p_s * e_s + p_c * e_c
                val = num / den_e if den_e > 0.0 else 0.0
            if val > best_val:
                best_val = val
                best_n = n_t
        out[k] = best_n
    return out


def _repair_rates(net: NetworkModel, tau: Sequence[float], nts: Sequence[int]
                  ) -> Optional[tuple[list[float], tuple[float, ...], tuple[float, ...]]]:
    """Lift access probabilities until every rate target holds, if possible.

    Returns the repaired access vector with its rates and efficiencies.
    """
    t = list(tau)
    for _ in range(6):
        _, rates, etas = evaluate(net, t, nts, guard_zero_energy=True)
        deficits = [k for k, row in enumerate(net.rows)
                    if rates[k] < row.r_min * (1.0 - 1e-9)]
        if not deficits:
            break
        for k in deficits:
            tmin = net.tau_min(k, t, nts[k])
            if tmin is None:
                return None
            if tmin > t[k]:
                t[k] = tmin
    else:
        # The last pass moved t after its evaluation.
        _, rates, etas = evaluate(net, t, nts, guard_zero_energy=True)
    for k, row in enumerate(net.rows):
        if rates[k] < row.r_min * (1.0 - _RATE_SLACK):
            return None
    if math.fsum(t) > 1.0 + _SUM_SLACK:
        return None
    return t, rates, etas


def _primal_polish(net: NetworkModel, cfg: SolverConfig, variant: str,
                   tau: Sequence[float], nts: Sequence[int],
                   enforce_rates: bool) -> Optional[tuple[list[float], list[int]]]:
    """Constrained coordinate ascent on the true objective from a feasible start.

    Each 1-D move evaluates the objective itself (not the Lagrangian): when
    rate targets are enforced, every probe first lifts the other nodes back
    onto their rate boundaries, so the search can travel along an active
    constraint instead of stalling at its corner.
    """
    n = net.n_nodes
    needs_log = variant in (VARIANT_LOGEE, VARIANT_LOGTHR)
    lo = cfg.inner_search_tol if needs_log else 0.0
    if enforce_rates:
        start = _repair_rates(net, tau, nts)
        if start is None:
            return None
        t = start[0]
    else:
        s = math.fsum(tau)
        t = [x / s for x in tau] if s > 1.0 else list(tau)
        if needs_log:
            t = [max(x, cfg.inner_search_tol) for x in t]
            s = math.fsum(t)
            if s > 1.0:
                t = [x / s for x in t]
    nts2 = _polish_payloads(net, variant, t, nts, enforce_rates)

    for _ in range(8):
        moved = 0.0
        for k in range(n):
            rest = math.fsum(t) - t[k]
            hi = min(1.0 - cfg.inner_search_tol, 1.0 - rest)
            if hi <= lo:
                continue
            if enforce_rates:
                repaired_probe: dict[float, list[float]] = {}

                def g(x: float) -> float:
                    probe = t[:]
                    probe[k] = x
                    rep = _repair_rates(net, probe, nts2)
                    if rep is None:
                        return -math.inf
                    repaired_probe[x] = rep[0]
                    return _objective_value(variant, rep[1], rep[2])

                best_x, best_f = _maximize_scalar(g, lo, hi, cfg.inner_search_tol)
                if best_f > g(t[k]) and best_x in repaired_probe:
                    new_t = repaired_probe[best_x]
                    moved = max(moved, max(abs(a - b) for a, b in zip(new_t, t)))
                    t = new_t
            else:
                profile = _Profile(net, t, nts2, k)

                def h(x: float) -> float:
                    rates, etas = profile.metrics_at(x)
                    return _objective_value(variant, rates, etas)

                best_x, best_f = _maximize_scalar(h, lo, hi, cfg.inner_search_tol)
                if best_f > h(t[k]):
                    moved = max(moved, abs(best_x - t[k]))
                    t[k] = best_x
        nts2 = _polish_payloads(net, variant, t, nts2, enforce_rates)
        if moved < cfg.convergence_tol:
            break
    return t, nts2


def _check_solution(net: NetworkModel, sol: Solution) -> Solution:
    if math.fsum(sol.tau_opt) > 1.0 + _SUM_SLACK:
        raise RuntimeError("solution violates the access-probability budget")
    for t in sol.tau_opt:
        if not 0.0 <= t <= 1.0:
            raise RuntimeError("solution access probability outside [0, 1]")
    for n_t in sol.nt_opt:
        if n_t % net.phy.n != 0 or not net.phy.n_t_min <= n_t <= net.phy.n_t_max:
            raise RuntimeError("solution payload size off the admissible grid")
    if sol.feasible:
        for k, nm in enumerate(net.nodes):
            if sol.rates[k] < nm.r_min * (1.0 - _RATE_SLACK):
                raise RuntimeError("feasible solution misses a rate target")
    return sol


def _coordinate_solve(net: NetworkModel, cfg: SolverConfig, variant: str,
                      start_tau: Sequence[float], start_nts: Sequence[int],
                      enforce_rates: bool) -> Solution:
    """Shared coordinate-ascent loop for the dual and fallback stages."""
    n_cw = net.phy.n
    grid = list(net.nt_grid())
    tau = list(start_tau)
    nts = list(start_nts)
    lambdas = [0.0] * net.n_nodes
    mu = 0.0
    needs_log = variant in (VARIANT_LOGEE, VARIANT_LOGTHR)
    lo = cfg.inner_search_tol if needs_log else 0.0
    hi = 1.0 - cfg.inner_search_tol

    if needs_log:
        # A node parked at exactly zero pins every log term at -inf, and no
        # single-coordinate move can escape that; seed such nodes with a
        # small share of the remaining access budget instead.
        zeros = [k for k, t in enumerate(tau) if t == 0.0]
        budget = 1.0 - math.fsum(tau)
        if zeros and budget > 0.0:
            seed = min(cfg.init_tau, 0.5 * budget / len(zeros))
            for k in zeros:
                tau[k] = seed

    pool = _CandidatePool(net, variant, enforce_rates)

    def process(point_tau: Sequence[float], point_nts: Sequence[int]) -> None:
        if pool.accept(point_tau, point_nts):
            pool.accept(point_tau, _polish_payloads(net, variant, point_tau, point_nts, enforce_rates))
        if enforce_rates:
            repaired = _repair_rates(net, point_tau, point_nts)
            if repaired is not None and pool.accept(repaired[0], point_nts):
                pool.accept(repaired[0],
                            _polish_payloads(net, variant, repaired[0], point_nts, enforce_rates))
        else:
            s = math.fsum(point_tau)
            if s > 1.0:
                projected = [t / s for t in point_tau]
                if pool.accept(projected, point_nts):
                    pool.accept(projected,
                                _polish_payloads(net, variant, projected, point_nts, enforce_rates))

    process(tau, nts)
    high_snapshot = (tuple(tau), tuple(nts))
    high_sum = math.fsum(tau)
    trace: list[float] = []
    converged = False
    for _ in range(cfg.max_outer_iters):
        prev_tau = tau[:]
        prev_nts = nts[:]
        for k, row in enumerate(net.rows):
            profile = _Profile(net, tau, nts, k)
            current = profile.lagrangian(tau[k], variant, lambdas, mu)
            best_t, best_f = _maximize_scalar(
                lambda t: profile.lagrangian(t, variant, lambdas, mu),
                lo, hi, cfg.inner_search_tol)
            if best_f > current:
                tau[k] = best_t
            # Payload step: only node k's own objective and rate terms move.
            sp = state_probs(tau)
            p_s, p_c, p_i, p_k = sp.p_success, sp.p_collision, sp.p_idle, sp.per_node_success[k]
            best_n = nts[k]
            best_val = -math.inf
            for n_t in grid:
                t_s, t_c, e_s, e_c = row.costs(n_t)
                num = n_t * p_k * (row.p_hdr * row.p_cw ** (n_t // n_cw))
                r = num / (p_s * t_s + p_c * t_c + p_i * row.t_idle)
                if variant == VARIANT_LOGTHR:
                    val = math.log(r) if r > 0.0 else -math.inf
                else:
                    den_e = p_s * e_s + p_c * e_c
                    eta = num / den_e if den_e > 0.0 else 0.0
                    if variant == VARIANT_EE:
                        val = eta + lambdas[k] * r
                    else:
                        val = (math.log(eta) if eta > 0.0 else -math.inf) + lambdas[k] * r
                if val > best_val:
                    best_val = val
                    best_n = n_t
            nts[k] = best_n
            if enforce_rates:
                _, rates, _ = evaluate(net, tau, nts, guard_zero_energy=True)
                lambdas[k] = max(cfg.multiplier_scale * (row.r_min - rates[k]), 0.0)
        mu = max(cfg.multiplier_scale * (math.fsum(tau) - 1.0), 0.0)
        process(tau, nts)
        if math.fsum(tau) > high_sum:
            high_sum = math.fsum(tau)
            high_snapshot = (tuple(tau), tuple(nts))
        trace.append(pool.best_obj)
        delta = max(
            max(abs(a - b) for a, b in zip(tau, prev_tau)),
            max(abs(a - b) for a, b in zip(nts, prev_nts)) / net.phy.n_t_max,
        )
        if delta < cfg.convergence_tol:
            converged = True
            break

    # Final primal polish from diverse starts; the pool keeps the best point.
    polish_starts = []
    if pool.best is not None:
        polish_starts.append(pool.best)
    polish_starts.append((tuple(tau), tuple(nts)))
    polish_starts.append(high_snapshot)
    seen = set()
    for st_tau, st_nts in polish_starts:
        key = (tuple(round(x, 9) for x in st_tau), st_nts)
        if key in seen:
            continue
        seen.add(key)
        res = _primal_polish(net, cfg, variant, st_tau, st_nts, enforce_rates)
        if res is not None:
            pool.accept(res[0], res[1])

    if pool.best is not None:
        best_tau, best_nts = pool.best
        feasible_point = True
    else:
        # No iterate satisfied the constraints; return the current iterate
        # scaled into the access budget and report it as infeasible.
        s = math.fsum(tau)
        best_tau = tuple(t / s for t in tau) if s > 1.0 else tuple(tau)
        best_nts = tuple(nts)
        feasible_point = False
    _, rates, etas = evaluate(net, best_tau, best_nts, guard_zero_energy=True)
    feasible = feasible_point and all(
        rates[k] >= nm.r_min * (1.0 - _RATE_SLACK) for k, nm in enumerate(net.nodes))
    return _check_solution(net, Solution(
        tau_opt=tuple(best_tau),
        nt_opt=tuple(best_nts),
        lambdas=tuple(lambdas),
        mu=mu,
        variant_used=variant,
        trace=tuple(trace),
        feasible=feasible,
        converged=converged,
        objective_value=_objective_value(variant, rates, etas),
        rates=rates,
        efficiencies=etas,
    ))


def solve_dual(net: NetworkModel, cfg: SolverConfig,
               start: Optional[tuple[Sequence[float], Sequence[int]]] = None) -> Solution:
    """Dual-decomposition stage for the EE and LogEE objectives."""
    if start is None:
        tau0, nts0, ok = feasibility_stage(net, cfg)
        if not ok:
            raise ValueError("rate constraints are jointly infeasible; use solve_logthr")
        start = (tau0, nts0)
    return _coordinate_solve(net, cfg, cfg.objective, start[0], start[1], enforce_rates=True)


def solve_logthr(net: NetworkModel, cfg: SolverConfig) -> Solution:
    """Sum-log-throughput fallback without rate constraints."""
    n = net.n_nodes
    start_tau = [cfg.init_tau] * n
    start_nts = [net.phy.n_t_max] * n
    return _coordinate_solve(net, cfg, VARIANT_LOGTHR, start_tau, start_nts, enforce_rates=False)


def eecap(net: NetworkModel, cfg: SolverConfig) -> Solution:
    """Full pipeline: feasibility stage, then the dual stage or the fallback."""
    tau0, nts0, ok = feasibility_stage(net, cfg)
    if ok:
        return solve_dual(net, cfg, start=(tau0, nts0))
    return solve_logthr(net, cfg)
