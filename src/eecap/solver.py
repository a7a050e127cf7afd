"""Joint optimization of access probabilities and payload sizes.

The solver has one model of the rate targets.  In the access odds
x = tau / (1 - tau) and the slot aggregates u = sum(x) and
v = prod(1 + x) - 1 - u, node k's rate is c_k x_k / (u t_s + v t_c + t_idle),
so its target reads x_k >= a_k (u t_s + v t_c + t_idle), a_k = r_min / c_k.
The solver first runs a feasibility stage, a node-by-node pass that moves
each node to the least odds meeting its target, the others held, and then
to its throughput-optimal payload size.  If the rate targets are jointly
reachable, constrained coordinate ascent maximizes the chosen efficiency
objective (sum or sum-of-logs) from that point; otherwise a
sum-log-throughput fallback drops the rate constraints and keeps only the
access-budget constraint.  eecap() is the one entry point: SolverConfig
chooses only the objective, and the round caps, the search tolerance and
the start point are module constants.

One round of the ascent runs a 1-D search on the true objective over each
node's access probability, then a per-node payload scan.  With rate
targets, every probe is first lifted to the least point above it that
meets every target (_lift), so the search can travel along an active rate
constraint; probes score from closed forms in the odds of the lifted
point, and a move is kept only if evaluate confirms the gain.  In the
fallback, a probe above the access budget shrinks the other nodes
proportionally, and each round starts with a search over a common scale
of all access probabilities, so the search travels along the budget face.
Once a round settles, a node may switch to a payload that meets its rate
target only with more access (see _payload_switch).  Only moves that raise
the objective are kept; the loop stops when no coordinate moves by more
than _CONVERGENCE_TOL, or after SolverConfig.max_outer_iters rounds.

Batched probes.  The 64-point pre-scan of every 1-D search is scored as
one (64 x n) numpy array: fallback probes from the closed-form rates
(_log_rates), rate-constrained probes lifted all at once (_lift_many).
The payload switch and the payload scan rank payloads as arrays too, from
a per-payload cost table built once per solve (_PayloadTable).  The
golden-section probes and the commits come one at a time, where numpy's
call overhead exceeds the arithmetic, so they use the scalar _lift and
evaluate.  Both lifts run one iteration, guarded Newton steps on the odds
aggregates (u, v); a lift fails where the Newton guard fails while F(z)
still rises, which happens only at a critical or absent least fixed point.

Tolerances.  _RATE_SLACK (relative shortfall of a rate) and _SUM_SLACK
(absolute excess of the access budget) decide the feasible flag of the
result and the checks on it.  The rate repair meets every target to
roundoff and refuses any point past _SUM_SLACK, so the start and every
probe it passes meet the targets exactly.  The payload scan admits a
payload up to _RATE_AIM short of its target, so roundoff cannot drop a
node's current payload; the next probe lifts the node exactly.  The
feasibility stage alone accepts its fixed point at _STAGE_SLACK: its
node-by-node pass can leave the nodes updated first a few parts per
million short of their targets, and such networks then go to the fallback
although they are feasible.  Accepting them at _RATE_SLACK removes those
fallbacks, but the rate-constrained ascent costs far more than the
fallback on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from .access import state_probs
from .metrics import _nt_opt
from .network import NetworkModel, NodeCoeffs, evaluate

VARIANT_EE = "EE"
VARIANT_LOGEE = "LogEE"
VARIANT_LOGTHR = "LogTHR"

_OBJECTIVES = (VARIANT_EE, VARIANT_LOGEE)
_RATE_SLACK = 1e-4        # relative rate shortfall an accepted point may have
_SUM_SLACK = 1e-9         # absolute excess over the access-probability budget
_RATE_AIM = 1e-9          # relative rate shortfall the payload scan admits
_STAGE_SLACK = 1e-6       # relative rate shortfall the feasibility stage accepts
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN = 64
_MAX_OUTER_ITERS = 200        # rounds of the coordinate ascent
_MAX_FEASIBILITY_ITERS = 50   # passes of the feasibility stage
_CONVERGENCE_TOL = 1e-6       # largest coordinate move of a settled round or pass
_SEARCH_TOL = 1e-5            # bracket width of the 1-D search, and its margin below tau = 1
_INIT_TAU = 0.01              # start access probability of every node


@dataclass(frozen=True)
class SolverConfig:
    """The efficiency objective to maximize: VARIANT_EE or VARIANT_LOGEE.

    max_outer_iters, the round cap of the coordinate ascent, is a class
    constant; a solve that reaches it returns with converged = False.
    """

    max_outer_iters: ClassVar[int] = _MAX_OUTER_ITERS

    objective: str = VARIANT_EE

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}, got {self.objective!r}")


@dataclass(frozen=True)
class Solution:
    """Best point found, with the objective after each round and its metrics."""

    tau_opt: tuple[float, ...]
    nt_opt: tuple[int, ...]
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


def _objective_rows(variant: str, etas: np.ndarray) -> np.ndarray:
    """The EE or LogEE objective of every row of etas."""
    if variant == VARIANT_EE:
        return etas.sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.log(etas).sum(axis=1)


def _maximize_scalar(f: Callable[[float], float], scan: Callable[[np.ndarray], np.ndarray],
                     lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bracketed 1-D maximization: coarse pre-scan, then golden-section.

    scan(xs) returns f at every point of xs at once; it scores the
    pre-scan, and f the golden-section probes.  Returns the best point
    evaluated anywhere, which makes the search robust when the function is
    not unimodal on [lo, hi].
    """
    if hi <= lo:
        return lo, f(lo)
    step = (hi - lo) / (_PRESCAN - 1)
    xs = lo + np.arange(_PRESCAN) * step
    values = scan(xs)
    i_best = int(np.argmax(values))
    best_x, best_f = float(xs[i_best]), float(values[i_best])

    def probe(x: float) -> float:
        nonlocal best_x, best_f
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx
        return fx

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


def _odds_row(row: NodeCoeffs, n_t: int, n: int) -> tuple[float, float, float, float, float, float]:
    """One node's (a t_s, a t_c, a t_idle, c, e_s, e_c) at payload n_t.

    c is the node's payload bits per success slot, as in evaluate, and
    a = r_min / c the access odds its rate target needs per second of the
    node's average slot: zero without a target, infinite for a link that
    delivers nothing.
    """
    t_s, t_c, e_s, e_c = row.costs(n_t)
    c = n_t * (row.p_hdr * row.p_cw ** (n_t // n))
    a = row.r_min / c if c > 0.0 else (math.inf if row.r_min > 0.0 else 0.0)
    return a * t_s, a * t_c, a * row.t_idle, c, e_s, e_c


def _least_odds(odds: Sequence[float], uo: float, q: float) -> float:
    """Least odds x_k meeting a node's rate target, the other nodes held.

    With odds row (a_s, a_c, a_i, ...), the target reads
    x_k >= a_s u + a_c v + a_i, where u = uo + x_k and v = q (1 + x_k) - 1 - u
    for the other nodes' odds sum uo and product q of their 1 + x.  Returns
    inf when no odds reach it (1 - a_s - (q - 1) a_c <= 0).
    """
    a_s, a_c, a_i = odds[:3]
    den = 1.0 - a_s - (q - 1.0) * a_c
    if not den > 0.0:
        return math.inf
    return (uo * a_s + (q - 1.0 - uo) * a_c + a_i) / den


def feasibility_stage(net: NetworkModel) -> tuple[tuple[float, ...], tuple[int, ...], bool]:
    """Alternate per-node minimum-access and best-payload updates, in odds.

    Node by node, x_k moves to the least odds meeting its rate target at
    its payload (_least_odds), and the payload to the throughput-optimal
    one for the split (u (t_s - n_t t_sym) + v (t_c - n_t t_sym) + t_idle,
    (u + v) t_sym) of the average slot duration over P^I.  Returns the fixed
    point and whether it meets every rate target with the access budget; a
    node that cannot meet its target ends the stage with feasible = False.
    """
    n = net.phy.n
    grid = list(net.nt_grid())
    tau = [_INIT_TAU] * net.n_nodes
    x = [_INIT_TAU / (1.0 - _INIT_TAU)] * net.n_nodes
    nts = [net.phy.n_t_max] * net.n_nodes
    for _ in range(_MAX_FEASIBILITY_ITERS):
        prev_tau, prev_nts = tau[:], nts[:]
        for k, row in enumerate(net.rows):
            others = x[:k] + x[k + 1:]
            uo, q = sum(others), math.prod([1.0 + xi for xi in others])
            y = _least_odds(_odds_row(row, nts[k], n), uo, q)
            t = y / (1.0 + y)
            if not t < 1.0:
                return tuple(tau), tuple(nts), False
            tau[k], x[k] = t, y
            u = uo + y
            v = q * (1.0 + y) - 1.0 - u
            t_s, t_c, _, _ = row.costs(nts[k])
            bits_time = nts[k] * row.t_sym
            to = u * (t_s - bits_time) + v * (t_c - bits_time) + row.t_idle
            nts[k] = _nt_opt(row.p_cw, to, (u + v) * row.t_sym, grid, n)
        delta = max(max(abs(a - b) for a, b in zip(tau, prev_tau)),
                    max(abs(a - b) for a, b in zip(nts, prev_nts)) / net.phy.n_t_max)
        if delta < _CONVERGENCE_TOL:
            break
    _, rates, _ = evaluate(net, tau, nts, guard_zero_energy=True)
    feasible = (all(r >= row.r_min * (1.0 - _STAGE_SLACK) for r, row in zip(rates, net.rows))
                and math.fsum(tau) <= 1.0 + _SUM_SLACK)
    return tuple(tau), tuple(nts), feasible


class _PayloadTable(NamedTuple):
    """Every node's slot costs at every payload of the grid, built once per solve.

    t_s, t_c, e_s, e_c (success and collision times and energies) and f
    (the probability that a success slot delivers its frame) are (n, G)
    arrays over the nodes and the G grid payloads nt; t_idle and r_min
    are (n,).  The entries repeat the arithmetic of NodeCoeffs.costs and
    evaluate, so slot costs read from the table agree with them bitwise.
    """

    nt: np.ndarray
    t_s: np.ndarray
    t_c: np.ndarray
    e_s: np.ndarray
    e_c: np.ndarray
    f: np.ndarray
    t_idle: np.ndarray
    r_min: np.ndarray

    @classmethod
    def build(cls, net: NetworkModel) -> _PayloadTable:
        n = net.phy.n
        grid = net.nt_grid()
        costs = np.array([[row.costs(n_t) for n_t in grid] for row in net.rows]).transpose(2, 0, 1)
        f = np.array([[row.p_hdr * row.p_cw ** (n_t // n) for n_t in grid] for row in net.rows])
        return cls(np.array(grid), *costs, f,
                   np.array([row.t_idle for row in net.rows]),
                   np.array([row.r_min for row in net.rows]))

    def at(self, nts: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(t_s, t_c, e_s, e_c, c) of every node at payloads nts, with c = n_t f."""
        rows = np.arange(len(nts))
        j = np.searchsorted(self.nt, nts)
        return (self.t_s[rows, j], self.t_c[rows, j], self.e_s[rows, j], self.e_c[rows, j],
                self.nt[j] * self.f[rows, j])


def _polish_payloads(pay: _PayloadTable, variant: str, tau: Sequence[float],
                     nts: Sequence[int]) -> list[int]:
    """Per-node payload re-optimization that preserves rate feasibility.

    Each node's rate and efficiency depend on no other node's payload, so
    the scan decouples: pick the payload maximizing the node's objective
    term among those still meeting its rate target (the fallback has none).
    The scan runs on every node and payload at once, with the arithmetic
    of evaluate; ties go to the smallest payload.
    """
    sp = state_probs(tau)
    p_s, p_c, p_i = sp.p_success, sp.p_collision, sp.p_idle
    num = pay.nt * np.array(sp.per_node_success)[:, None] * pay.f
    r = num / (p_s * pay.t_s + p_c * pay.t_c + p_i * pay.t_idle[:, None])
    if variant == VARIANT_LOGTHR:
        val = r
    else:
        den_e = p_s * pay.e_s + p_c * pay.e_c
        val = np.divide(num, den_e, out=np.zeros_like(num), where=den_e > 0.0)
        val[r < pay.r_min[:, None] * (1.0 - _RATE_AIM)] = -math.inf
    best = np.argmax(val, axis=1)
    keep = val[np.arange(len(nts)), best] == -math.inf   # no payload meets the target
    return [n_t if k else int(pay.nt[j]) for n_t, k, j in zip(nts, keep, best)]


def _odds_table(net: NetworkModel, nts: Sequence[int]) -> list[tuple[float, ...]]:
    """_odds_row of every node at payloads nts."""
    return [_odds_row(row, n_t, net.phy.n) for row, n_t in zip(net.rows, nts)]


def _lift(table: Sequence[tuple[float, ...]], tau: Sequence[float]
          ) -> Optional[tuple[list[float], list[float]]]:
    """Least access vector at or above tau that meets every rate target.

    With z = (u, v) held, the odds form of the targets (module docstring)
    asks x_k(z) = max(x0_k, a_k (u t_s + v t_c + t_idle)) of node k, x0 the
    odds of tau, and the lift is x(z*) for the least solution z* of z = F(z),
    where F(z) = (sum x(z), prod(1 + x(z)) - 1 - sum x(z)).

    Guarded Newton steps for z = F(z) start at the aggregates z0 of tau,
    where z0 <= z* and F(z0) >= z0.  F is a polynomial with non-negative
    coefficients in each region of the max terms, so F' is non-negative and
    order-convex: from z <= z* with F(z) >= z, a Newton step stays at or
    below z* with F >= z if I - F'(z) is a non-singular M-matrix, which the
    guard (positive diagonal and determinant) tests.  As z <= z*,
    I - F'(z) >= I - F'(z*), a non-singular M-matrix unless z* is critical,
    so the guard holds (Esparza, Kiefer and Luttenberger, J. ACM 57(6),
    2010).  A guard that fails while F(z) still rises thus means that z* is
    critical or absent: the lift returns None, as it does once x(z) leaves
    the access budget or reaches tau = 1, or a node with a target cannot
    meet it however high it goes, the others held (1 - a_s - (q - 1) a_c <= 0,
    q = prod_{j != k}(1 + x_j)); the iterates only rise, so every point
    above tau then fails too.  Otherwise the lift ends once F(z) - z no
    longer rises, or one step after a step below 1e-8 of 1 + u + v that
    raised no further node (across a kink of F a step is not quadratic),
    and returns the lifted tau (unmoved entries are tau's own) and the
    efficiencies c_k x_k / (u e_s + v e_c) at x(z).  tau entries are below 1.
    """
    x0 = [t / (1.0 - t) for t in tau]
    u = sum(x0)
    v = math.prod([1.0 + xk for xk in x0]) - 1.0 - u
    last, ups = False, 0
    while True:
        x, out = [], []
        f1 = j11 = j12 = s1 = s2 = 0.0
        p, m = 1.0, 0
        for t, x0k, (as_, ac, ai, _, _, _) in zip(tau, x0, table):
            xk = u * as_ + v * ac + ai
            if xk > x0k:
                w = 1.0 + xk
                tk = xk / w
                if not tk < 1.0:
                    return None
                t = tk if tk > t else t
                m += 1
                j11 += as_
                j12 += ac
                s1 += as_ / w
                s2 += ac / w
            else:
                xk, w = x0k, 1.0 + x0k
            x.append(xk)
            out.append(t)
            f1 += xk
            p *= w
        if not math.fsum(out) <= 1.0 + _SUM_SLACK:
            return None
        r1, r2 = f1 - u, p - 1.0 - f1 - v
        if r1 + r2 <= 0.0 or last and m <= ups:
            break
        j21, j22 = p * s1 - j11, p * s2 - j12
        d11, d22 = 1.0 - j11, 1.0 - j22
        det = d11 * d22 - j12 * j21
        if not (d11 > 0.0 and d22 > 0.0 and det > 0.0):
            return None
        du, dv = (d22 * r1 + j12 * r2) / det, (j21 * r1 + d11 * r2) / det
        last, ups = du + dv <= 1e-8 * (1.0 + u + v), m
        u, v = u + du, v + dv
    # The denominators only fall as the iterates rise, so the last one decides.
    v = p - 1.0 - f1
    etas = []
    for xk, (as_, ac, _, c, e_s, e_c) in zip(x, table):
        if not 1.0 - as_ - (p / (1.0 + xk) - 1.0) * ac > 0.0:
            return None
        e_den = f1 * e_s + v * e_c
        etas.append(c * xk / e_den if e_den > 0.0 else 0.0)
    return out, etas


def _lift_many(table: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_lift of every row of taus at once: (lifted taus, efficiencies, ok).

    table is _odds_table as an (n, 6) array.  Every row runs _lift's
    guarded Newton iteration on its own aggregates, with the same end and
    drop rules; a dropped row has ok False and NaN entries.
    """
    out, etas = np.full(taus.shape, math.nan), np.full(taus.shape, math.nan)
    ok = np.zeros(len(taus), dtype=bool)
    a_s, a_c, a_i, c, e_s, e_c = table.T
    with np.errstate(all="ignore"):   # a link that delivers nothing has a = inf
        x0 = taus / (1.0 - taus)
        u = x0.sum(axis=1)
        v = np.prod(1.0 + x0, axis=1) - 1.0 - u
        rows, t0, last, ups = np.arange(len(taus)), taus, np.zeros(len(taus), dtype=bool), 0
        while rows.size:
            need = u[:, None] * a_s + v[:, None] * a_c + a_i
            up = need > x0
            x = np.where(up, need, x0)
            w = 1.0 + x
            t = np.where(up, np.maximum(x / w, t0), t0)
            live = (t.sum(axis=1) <= 1.0 + _SUM_SLACK) & (t < 1.0).all(axis=1)
            f1 = x.sum(axis=1)
            p = np.prod(w, axis=1)
            r1, r2 = f1 - u, p - 1.0 - f1 - v
            m = up.sum(axis=1)
            done = live & ((r1 + r2 <= 0.0) | last & (m <= ups))
            if done.any():
                xd, f1d, pd = x[done], f1[done, None], p[done, None]
                good = (1.0 - a_s - (pd / w[done] - 1.0) * a_c > 0.0).all(axis=1)
                e_den = f1d * e_s + (pd - 1.0 - f1d) * e_c
                lifted = rows[done][good]
                out[lifted] = t[done][good]
                etas[lifted] = np.divide(c * xd, e_den, out=np.zeros_like(xd), where=e_den > 0.0)[good]
                ok[lifted] = True
            g_s, g_c = np.where(up, a_s, 0.0), np.where(up, a_c, 0.0)
            j11, j12 = g_s.sum(axis=1), g_c.sum(axis=1)
            j21, j22 = p * (g_s / w).sum(axis=1) - j11, p * (g_c / w).sum(axis=1) - j12
            d11, d22 = 1.0 - j11, 1.0 - j22
            det = d11 * d22 - j12 * j21
            du, dv = (d22 * r1 + j12 * r2) / det, (j21 * r1 + d11 * r2) / det
            keep = live & ~done & (d11 > 0.0) & (d22 > 0.0) & (det > 0.0)
            last, ups = (du + dv <= 1e-8 * (1.0 + u + v))[keep], m[keep]
            rows, x0, t0 = rows[keep], x0[keep], t0[keep]
            u, v = u[keep] + du[keep], v[keep] + dv[keep]
    return out, etas, ok


def _log_rates(cols: tuple[np.ndarray, ...], taus: np.ndarray) -> np.ndarray:
    """Sum of log rates, the fallback objective, of every row of taus (entries below 1).

    cols holds (t_s, t_c, t_idle, c) per node, for the odds closed form of
    the rates (see the module docstring); a zero rate gives -inf.
    """
    t_s, t_c, t_idle, c = cols
    with np.errstate(divide="ignore"):
        x = taus / (1.0 - taus)
        u = x.sum(axis=1, keepdims=True)
        v = np.prod(1.0 + x, axis=1, keepdims=True) - 1.0 - u
        return np.log(c * x / (u * t_s + v * t_c + t_idle)).sum(axis=1)


def _repair_rates(net: NetworkModel, tau: Sequence[float], nts: Sequence[int]
                  ) -> Optional[tuple[list[float], tuple[float, ...], tuple[float, ...]]]:
    """Lift access probabilities onto every rate target, if the budget allows.

    Returns the lifted access vector (see _lift) with its rates and
    efficiencies from evaluate, or None.
    """
    lifted = _lift(_odds_table(net, nts), tau)
    if lifted is None:
        return None
    _, rates, etas = evaluate(net, lifted[0], nts, guard_zero_energy=True)
    return lifted[0], rates, etas


def _value(net: NetworkModel, variant: str, tau: Sequence[float], nts: Sequence[int]) -> float:
    _, rates, etas = evaluate(net, tau, nts, guard_zero_energy=True)
    return _objective_value(variant, rates, etas)


def _payload_switch(net: NetworkModel, pay: _PayloadTable, variant: str, tau: list[float],
                    nts: list[int], value: float) -> Optional[tuple[list[float], list[int], float]]:
    """Move nodes to payloads that meet their rate target only with more access.

    The payload scan keeps each node on the payloads its current access
    probability already serves.  Here every other payload of a node is
    lifted to its minimum access probability, the others held, and ranked
    by the objective at that point, all payloads at once from the odds
    closed forms (see _lift); the best one is repaired once and kept if the
    objective rises.  Returns the improved point, or None if no node moved.
    """
    moved = False
    for k in range(net.n_nodes):
        _, _, e_s, e_c, c = pay.at(nts)
        x = np.array(tau) / (1.0 - np.array(tau))
        q = np.prod(1.0 + x) / (1.0 + x[k])   # prod(1 + x) and sum(x) over the other nodes
        uo = x.sum() - x[k]
        c_k = pay.nt * pay.f[k]
        with np.errstate(all="ignore"):
            a = pay.r_min[k] / c_k if pay.r_min[k] > 0.0 else np.zeros_like(c_k)
            a_s, a_c = a * pay.t_s[k], a * pay.t_c[k]
            den = 1.0 - a_s - (q - 1.0) * a_c
            y = (uo * a_s + (q - 1.0 - uo) * a_c + a * pay.t_idle[k]) / den
            t_min = y / (1.0 + y)
            cand = (den > 0.0) & (t_min < 1.0) & (t_min > tau[k]) & (pay.nt != nts[k])
            if not cand.any():
                continue
            u = uo + y
            v = q * (1.0 + y) - 1.0 - u
            cols = [np.tile(col, (len(y), 1)) for col in (x, c, e_s, e_c)]
            for col, own in zip(cols, (y, c_k, pay.e_s[k], pay.e_c[k])):
                col[:, k] = own
            xs, cs, es, ec = cols
            e_den = u[:, None] * es + v[:, None] * ec
            etas = np.divide(cs * xs, e_den, out=np.zeros_like(xs), where=e_den > 0.0)
            f = np.where(cand, _objective_rows(variant, etas), -math.inf)
        j = int(np.argmax(f))
        if not f[j] > value:
            continue
        probe = tau[:]
        probe[k] = float(t_min[j])
        probe_nts = nts[:]
        probe_nts[k] = int(pay.nt[j])
        rep = _repair_rates(net, probe, probe_nts)
        if rep is not None:
            f = _objective_value(variant, rep[1], rep[2])
            if f > value:
                tau, nts, value, moved = rep[0], probe_nts, f, True
    return (tau, nts, value) if moved else None


def _check_solution(net: NetworkModel, sol: Solution) -> Solution:
    phy = net.phy
    if math.fsum(sol.tau_opt) > 1.0 + _SUM_SLACK:
        raise RuntimeError("solution violates the access-probability budget")
    if not all(0.0 <= t <= 1.0 for t in sol.tau_opt):
        raise RuntimeError("solution access probability outside [0, 1]")
    if not all(n_t % phy.n == 0 and phy.n_t_min <= n_t <= phy.n_t_max for n_t in sol.nt_opt):
        raise RuntimeError("solution payload size off the admissible grid")
    if sol.feasible and any(r < nm.r_min * (1.0 - _RATE_SLACK) for r, nm in zip(sol.rates, net.nodes)):
        raise RuntimeError("feasible solution misses a rate target")
    return sol


def _coordinate_solve(net: NetworkModel, variant: str,
                      start_tau: Sequence[float], start_nts: Sequence[int]) -> Solution:
    """Constrained coordinate ascent on the true objective from a start point.

    Rate targets are enforced for EE and LogEE and dropped for the LogTHR
    fallback; see the module docstring for the moves of one round.
    """
    n = net.n_nodes
    enforce_rates = variant != VARIANT_LOGTHR
    pay = _PayloadTable.build(net)
    tol = _SEARCH_TOL
    lo = 0.0 if variant == VARIANT_EE else tol
    t = list(start_tau)
    nts = list(start_nts)
    if variant != VARIANT_EE:
        # A node parked at exactly zero pins every log term at -inf, and no
        # single-coordinate move can escape that; seed such nodes with a
        # small share of the remaining access budget instead.
        zeros = [k for k, x in enumerate(t) if x == 0.0]
        budget = 1.0 - math.fsum(t)
        if zeros and budget > 0.0:
            seed = min(_INIT_TAU, 0.5 * budget / len(zeros))
            for k in zeros:
                t[k] = seed

    def score(probe: list[float]) -> float:
        """Objective at probe, after lifting every rate onto its target when enforced.

        A lifted probe scores from the odds closed forms, which can differ
        from evaluate in the last bits, so a move is committed only if its
        evaluate value also rises.
        """
        if not enforce_rates:
            return _value(net, variant, probe, nts)
        lifted = _lift(table, probe)
        if lifted is None:
            return -math.inf
        return _objective_value(variant, (), lifted[1])  # EE and LogEE read only etas

    def scan(probes: np.ndarray) -> np.ndarray:
        """score() of every row of probes, from the same closed forms in numpy."""
        if not enforce_rates:
            return _log_rates(rate_cols, probes)
        _, etas, ok = _lift_many(odds, probes)
        return np.where(ok, _objective_rows(variant, etas), -math.inf)

    def commit(probe: list[float]) -> tuple[float, list[float]]:
        """The probe, repaired when rates are enforced, and its objective from evaluate."""
        if not enforce_rates:
            return _value(net, variant, probe, nts), probe
        rep = _repair_rates(net, probe, nts)
        if rep is None:
            return -math.inf, probe
        return _objective_value(variant, rep[1], rep[2]), rep[0]

    trace: list[float] = []
    converged = False
    rounds = _MAX_OUTER_ITERS
    if enforce_rates:
        start = _repair_rates(net, t, nts)
        if start is None:
            rounds = 0  # no rate-feasible start: report the start point as it is
        else:
            t = start[0]
    s = math.fsum(t)
    if s > 1.0:
        t = [x / s for x in t]
    nts = _polish_payloads(pay, variant, t, nts)
    value = _value(net, variant, t, nts)

    for _ in range(rounds):
        prev_t, prev_nts = t[:], nts[:]
        if enforce_rates:
            table = _odds_table(net, nts)   # nts holds until the payload scan below
            odds = np.array(table)
        else:
            t_s, t_c, _, _, c = pay.at(nts)
            rate_cols = (t_s, t_c, pay.t_idle, c)
            # A common scale of all access probabilities takes the whole
            # vector onto the budget face, which single-node moves reach
            # only through many small proportional shrinks.
            s_hi = min(1.0 / math.fsum(t), (1.0 - tol) / max(t))
            x, f = _maximize_scalar(lambda c: score([v * c for v in t]),
                                    lambda cs: scan(np.outer(cs, t)), 0.0, s_hi, tol)
            if f > value:
                value, t = commit([v * x for v in t])
        for k in range(n):
            rest = math.fsum(t) - t[k]
            hi = min(1.0 - tol, 1.0 - rest) if enforce_rates else 1.0 - tol
            if hi <= lo:
                continue

            def probe(x: float) -> list[float]:
                # Above the access budget the other nodes shrink proportionally.
                c = (1.0 - x) / rest if x + rest > 1.0 else 1.0
                p = [v * c for v in t]
                p[k] = x
                return p

            def probes(xs: np.ndarray) -> np.ndarray:
                over = xs + rest > 1.0
                scale = np.where(over, (1.0 - xs) / rest, 1.0) if over.any() else np.ones_like(xs)
                p = scale[:, None] * np.array(t)
                p[:, k] = xs
                return p

            x, f = _maximize_scalar(lambda x: score(probe(x)), lambda xs: scan(probes(xs)), lo, hi, tol)
            if f > value:
                f, p = commit(probe(x))
                if f > value:
                    value, t = f, p
        nts = _polish_payloads(pay, variant, t, nts)
        if nts != prev_nts:
            value = _value(net, variant, t, nts)
        settled = nts == prev_nts and max(abs(a - b) for a, b in zip(t, prev_t)) <= _CONVERGENCE_TOL
        if settled and enforce_rates:
            switched = _payload_switch(net, pay, variant, t, nts, value)
            if switched is not None:
                t, nts, value = switched
                settled = False
        trace.append(value)
        if settled:
            converged = True
            break

    _, rates, etas = evaluate(net, t, nts, guard_zero_energy=True)
    feasible = all(r >= row.r_min * (1.0 - _RATE_SLACK) for r, row in zip(rates, net.rows))
    return _check_solution(net, Solution(
        tau_opt=tuple(t),
        nt_opt=tuple(nts),
        variant_used=variant,
        trace=tuple(trace),
        feasible=feasible,
        converged=converged,
        objective_value=_objective_value(variant, rates, etas),
        rates=rates,
        efficiencies=etas,
    ))


def eecap(net: NetworkModel, cfg: SolverConfig) -> Solution:
    """Full pipeline: feasibility stage, then the rate-constrained ascent or the fallback.

    When the stage finds every rate target reachable, the ascent maximizes
    cfg.objective from the stage point; otherwise the sum-log-throughput
    fallback drops the rate targets and starts every node at _INIT_TAU
    with the largest payload.
    """
    tau0, nts0, ok = feasibility_stage(net)
    if ok:
        return _coordinate_solve(net, cfg.objective, tau0, nts0)
    n = net.n_nodes
    return _coordinate_solve(net, VARIANT_LOGTHR, [_INIT_TAU] * n, [net.phy.n_t_max] * n)
