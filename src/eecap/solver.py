"""Joint optimization of access probabilities and payload sizes.

The solver has one model of the rate targets.  In the access odds
x = tau / (1 - tau) and the slot aggregates u = sum(x) and
v = prod(1 + x) - 1 - u, node k's rate is c_k x_k / D_k with
D_k = u t_s,k + v t_c,k + t_idle, so its target reads
x_k >= a_k D_k, a_k = r_min / c_k.  eecap(), the one entry point, takes
the solve paths below in their order.  SolverConfig chooses only the
objective; the round caps, the tolerances and the stage's start point are
module constants.

Feasibility stage.  A node-by-node pass moves each node to the least odds
meeting its target, the others held, then climbs its row of the payload
table to its throughput-optimal payload (feasibility_stage).  If it finds
the targets out of reach together, the solve takes the LogTHR fallback.

Least point x*.  At the stage's payloads the solve lifts tau = 0 onto the
rate targets (_lift), the least access vector meeting every target there,
moves each node to its best EE payload at that point, and lifts again,
until the payloads settle or for _CERT_ROUNDS lifts (_least_point).  Each
lift meets every target at its own payloads, so x* does, settled or not.
x*, computed once, is the EE certificate candidate and the start of both
ascents; where a lift fails, the solve takes the LogTHR fallback.

Certificate exit.  An EE solve returns x* at once, with no round of the
ascent, if evaluate puts it within _CERT_GAP of the bound B' (_ee_bound),
which holds for every rate-feasible point at any payloads:
  (1) EE = sum_k (x_k / u) c_k / (e_s,k + rho e_c,k), with rho = v / u, is
      a mean of per-node ratios with weights summing to 1, so
      EE <= max_{k, n_t} c_k / (e_s,k + rho e_c,k) at every payload choice;
  (2) rho is nondecreasing in every x_j, and e_c >= 0;
  (3) each rate-feasible x satisfies x >= L(x) for the lower map L whose
      node k holds its minima over the payload grid of a t_s, a t_c and
      a t_idle, so x >= lfp(L) and rho(x) >= rho_lo = rho(lfp(L)).
So B' = max_{k, n_t} c_k / (e_s,k + rho_lo e_c,k) >= EE(x), and an x*
within _CERT_GAP of B' is globally optimal to that gap, not only a
stationary point.  The solve reports B' as Solution.upper_bound either way.

Ascent from x*.  Otherwise, for EE and LogEE alike, constrained
coordinate ascent maximizes the objective from x* (_coordinate_solve).
One round runs a 1-D search on the true objective over each node's access
probability, then a per-node payload scan.  Every probe is first lifted
to the least point above it that meets every target (_lift), so the
search can travel along an active rate constraint; probes score from
closed forms in the odds of the lifted point, and a move is kept only if
evaluate confirms the gain.  Once a round settles, a node may switch to a
payload that meets its rate target only with more access
(_payload_switch).  Only moves that raise the objective are kept, so the
ascent never ends below x*; it stops when no coordinate moves by more
than _CONVERGENCE_TOL, or after SolverConfig.max_outer_iters rounds.

A node's 1-D search is skipped where the node sits on its rate target
and loses on its first step up (_holds_on_target).  The left side of the
search is exactly flat there.  _lift returns the least rate-feasible
point at or above its probe, so it is monotone in the probe, and the
current point t is rate-feasible, so it lifts to itself.  A probe that
lowers t_k to any s in [lo, t_k], lo the search's lower end (0 for EE,
_SEARCH_TOL for LogEE), therefore lifts to a point between the lift of
the probe at s = lo and t; if that lift is t, so is every one of them,
and the search can gain only by moving t_k up.  The skip reads this off
the scores: the probe at lo must score as t does, and the probe at
t_k + _CONVERGENCE_TOL (at most hi) no higher.  Nothing proves the lifted
profile unimodal above t_k, so for these nodes the skip gives up the
pre-scan's global look over [t_k, hi].

Batched probes.  The 64-point pre-scan of every 1-D search lifts and
scores its probes as one numpy array (_lift_many), each probe in a column
of its own to the end, with every sum over the nodes in node order, so a
probe gets the same bits in any batch.  The payload switch and scan rank
payloads as arrays too.  The golden-section probes and the
commits come one at a time, where numpy's call overhead exceeds the
arithmetic, so they use the scalar _lift and evaluate.  Every stage reads
slot costs, frame success and target odds from the network's one
per-payload table (NetworkModel.payloads), and every slot-state aggregate
from the kernel in eecap.access.

LogTHR fallback.  With the rate targets dropped, at fixed payloads it
maximizes f(y) = sum_k [log c_k + y_k - log D_k] over the log-odds
y = log x within the access budget.  f is concave: each D_k is a
posynomial in x (v sums the products of two or more odds), so log D_k is
convex in y (Boyd, Kim, Vandenberghe and Hassibi, "A tutorial on
geometric programming", 2007).  The budget is convex in y too: times
P = prod(1 + x), sum tau <= 1 reads
sum_{|S|>=2} (|S| - 1) prod_{j in S} x_j <= 1.  Both are symmetric under
any permutation of the nodes: f reads y only through sum(y) and the
symmetric aggregates (u, v), whatever each node's c_k and slot times, and
the budget only through sum tau.  So the mean of y's permutations, the
point whose every entry is mean(y), lies in the budget (convexity) and
scores at least f(y) (concavity): a common odds for every node is optimal,
and the fallback is a 1-D concave problem (_logthr_newton).  It alternates
that solve with the payload scan from the largest payload until the
payloads settle (_logthr_fallback).

Tolerances.  _RATE_SLACK (relative shortfall of a rate) and _SUM_SLACK
(absolute excess of the access budget) decide the feasible flag of the
result (_feasible, which the CLI also prints for a fixed point).  The rate
repair meets every target to roundoff and refuses any point past
_SUM_SLACK, so the start and every probe it passes meet the targets
exactly.  The payload scan admits a payload up to _RATE_AIM short of its
target, so roundoff cannot drop a node's current payload; the next probe
lifts the node exactly.  _CERT_GAP (1e-9, relative) is the certificate's
gap to B'.  The feasibility stage alone accepts its fixed point at
_STAGE_SLACK: its node-by-node pass can leave the nodes updated first a
few parts per million short of their targets, and such networks then go to
the fallback although they are feasible.  Accepting them at _RATE_SLACK
removes those fallbacks, but the rate-constrained ascent costs far more
than the fallback on them.  A fallback point counts as converged only on
the budget face or where the log-odds derivative of its Lagrangian is
within _KKT_TOL of zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .access import _odds_states, state_probs
from .network import NetworkModel, evaluate

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
_CERT_GAP = 1e-9              # relative gap to the EE upper bound at which a solve returns at once
_CERT_ROUNDS = 4              # lift-and-polish rounds of the least point x*
_NEWTON_STEPS = 50            # Newton steps of one LogTHR access solve
_KKT_TOL = 1e-9               # largest log-odds derivative of the Lagrangian at a LogTHR optimum


@dataclass(frozen=True)
class SolverConfig:
    """The efficiency objective to maximize: VARIANT_EE or VARIANT_LOGEE.

    max_outer_iters, the round cap of the coordinate ascent and of the
    fallback's payload rounds, is a class constant; a solve that reaches it
    returns with converged = False.
    """

    max_outer_iters: ClassVar[int] = _MAX_OUTER_ITERS

    objective: str = VARIANT_EE

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}, got {self.objective!r}")


@dataclass(frozen=True)
class Solution:
    """Best point found, with the objective after each round and its metrics.

    upper_bound is, for an EE solve, the bound B' on the objective of every
    rate-feasible point (module docstring, "Certificate exit"), and None
    for LogEE and the LogTHR fallback.  A solve that ends on the
    certificate runs no round of the ascent: its trace holds the one
    objective value of the returned point, so iterations is 1.
    """

    tau_opt: tuple[float, ...]
    nt_opt: tuple[int, ...]
    variant_used: str
    trace: tuple[float, ...]
    feasible: bool
    converged: bool
    objective_value: float
    rates: tuple[float, ...]
    efficiencies: tuple[float, ...]
    upper_bound: Optional[float] = None

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
    """Bracketed 1-D maximization on [lo, hi], lo < hi: coarse pre-scan, then golden-section.

    scan(xs) returns f at every point of xs at once; it scores the
    pre-scan, and f the golden-section probes.  Returns the best point
    evaluated anywhere, which makes the search robust when the function is
    not unimodal on [lo, hi].
    """
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


def _feasible(net: NetworkModel, tau: Sequence[float], rates: Sequence[float],
              slack: float = _RATE_SLACK) -> bool:
    """The feasible flag: every rate at least r_min (1 - slack), and sum tau <= 1 + _SUM_SLACK."""
    return (all(r >= nm.r_min * (1.0 - slack) for r, nm in zip(rates, net.nodes))
            and math.fsum(tau) <= 1.0 + _SUM_SLACK)


def feasibility_stage(net: NetworkModel) -> tuple[tuple[float, ...], tuple[int, ...], bool]:
    """Alternate per-node minimum-access and best-payload updates, in odds.

    Every node starts at n_t_max.  Node by node, with the other nodes'
    aggregates (uo, vo, lo) = (sum x, v, prod(1 + x) - 1) from the kernel,
    x_k moves to the least odds meeting its target at its payload,
    (uo a_s + vo a_c + a_i) / (1 - a_s - lo a_c) on its PayloadTable.odds
    row, as in _payload_switch.  Its payload then climbs its row of
    throughputs c / (u t_s + v t_c + t_idle) from the current one: up while
    the next entry is larger, then down while the previous one is at least
    as large.  Returns the fixed point and whether it meets every target to
    _STAGE_SLACK within the access budget (_feasible); a node that cannot
    meet its target ends the stage, infeasible.

    The climb is exact: it ends on the row's first maximum, the
    throughput-optimal payload with ties to the smaller one.  At n_t = m n
    an entry's log is log n_t + m log p_cw - log(A + B n_t) plus a constant,
    with B = (u + v) t_sym and A >= t_idle > 0, so it is concave in n_t and
    the steps between neighbours never rise: the row rises strictly to its
    first maximum and never rises after it, and the climb stops there from
    either side (at n_t_min if p_cw = 0, where the row is zero).
    """
    pay = net.payloads
    nt, t_s, t_c, a, c = (col.tolist() for col in (pay.nt, pay.t_s, pay.t_c, pay.a, pay.c))
    t_i = pay.t_idle
    tau = [_INIT_TAU] * net.n_nodes
    x = [_INIT_TAU / (1.0 - _INIT_TAU)] * net.n_nodes
    js = [len(nt) - 1] * net.n_nodes   # each node's payload, as its index into nt

    def thr(i: int) -> float:   # the climbing node's throughput over P^I at nt[i]
        return ck[i] / (u * ts[i] + v * tc[i] + t_i)

    for _ in range(_MAX_FEASIBILITY_ITERS):
        prev_tau, prev_js = tau[:], js[:]
        for k in range(net.n_nodes):
            uo, vo, lo, _ = _odds_states(x[:k] + x[k + 1:])
            ts, tc, ck, j = t_s[k], t_c[k], c[k], js[k]
            a_s, a_c = a[k][j] * ts[j], a[k][j] * tc[j]
            den = 1.0 - a_s - lo * a_c
            y = (uo * a_s + vo * a_c + a[k][j] * t_i) / den if den > 0.0 else math.inf
            t = y / (1.0 + y)   # NaN where y is infinite
            if not t < 1.0:
                return tuple(tau), tuple(nt[i] for i in js), False
            tau[k], x[k] = t, y
            u, v = uo + y, vo + lo * y
            here = thr(j)
            while j + 1 < len(nt) and (there := thr(j + 1)) > here:
                j, here = j + 1, there
            while j > 0 and (there := thr(j - 1)) >= here:
                j, here = j - 1, there
            js[k] = j
        if js == prev_js and max(abs(new - old) for new, old in zip(tau, prev_tau)) < _CONVERGENCE_TOL:
            break
    nts = [nt[j] for j in js]
    _, rates, _ = evaluate(net, tau, nts, guard_zero_energy=True)
    return tuple(tau), tuple(nts), _feasible(net, tau, rates, _STAGE_SLACK)


def _polish_payloads(net: NetworkModel, variant: str, tau: Sequence[float],
                     nts: Sequence[int]) -> list[int]:
    """Per-node payload re-optimization that preserves rate feasibility.

    Each node's rate and efficiency depend on no other node's payload, so
    the scan decouples: pick the payload maximizing the node's objective
    term among those still meeting its rate target (the fallback has none).
    The scan runs on every node and payload at once, with the arithmetic
    of evaluate; ties go to the smallest payload.
    """
    pay = net.payloads
    sp = state_probs(tau)
    p_s, p_c, p_i = sp.p_success, sp.p_collision, sp.p_idle
    num = pay.nt * np.array(sp.per_node_success)[:, None] * pay.f
    r = num / (p_s * pay.t_s + p_c * pay.t_c + p_i * pay.t_idle)
    if variant == VARIANT_LOGTHR:
        val = r
    else:
        den_e = p_s * pay.e_s + p_c * pay.e_c
        val = np.divide(num, den_e, out=np.zeros_like(num), where=den_e > 0.0)
        val[r < pay.r_min[:, None] * (1.0 - _RATE_AIM)] = -math.inf
    best = np.argmax(val, axis=1)
    keep = val[np.arange(len(nts)), best] == -math.inf   # no payload meets the target
    return [n_t if k else int(pay.nt[j]) for n_t, k, j in zip(nts, keep, best)]


def _lift_map(table: Sequence[tuple[float, ...]], tau: Sequence[float], x0: Sequence[float],
              u: float, v: float) -> tuple:
    """The lift's map F at z = (u, v) and its Jacobian: (x, out, m, F(z), J, others).

    Node k asks x_k = max(x0_k, a_s u + a_c v + a_i) (its row of table);
    out is the lifted tau (None once a raised node reaches tau = 1), m the
    number of raised nodes, F(z) = (u(x), v(x)) and others[k] = L_k =
    prod_{j != k}(1 + x_j) - 1 (eecap.access._odds_states).  J = (j11, j12,
    j21, j22) sums a_s, a_c, a_s L_k and a_c L_k over the raised nodes: the
    derivative of F in the region of the max terms at z, as dv / dx_k = L_k.
    """
    x, out, up = list(x0), list(tau), []
    for k, (x0k, (as_, ac, ai, _, _, _)) in enumerate(zip(x0, table)):
        xk = u * as_ + v * ac + ai
        if xk > x0k:
            up.append(k)
            x[k] = xk
            if out is not None:
                tk = xk / (1.0 + xk)
                if not tk < 1.0:
                    out = None
                elif tk > out[k]:
                    out[k] = tk
    f1, f2, _, others = _odds_states(x, others=True)
    j11 = j12 = j21 = j22 = 0.0
    for k in up:
        as_, ac, lk = table[k][0], table[k][1], others[k]
        j11 += as_
        j12 += ac
        j21 += as_ * lk
        j22 += ac * lk
    return x, out, len(up), (f1, f2), (j11, j12, j21, j22), others


def _lift(table: Sequence[tuple[float, ...]], tau: Sequence[float]
          ) -> Optional[tuple[list[float], list[float]]]:
    """Least access vector at or above tau that meets every rate target.

    With z = (u, v) held, the odds form of the targets (module docstring)
    asks x_k(z) = max(x0_k, a_k (u t_s + v t_c + t_idle)) of node k, x0 the
    odds of tau, and the lift is x(z*) for the least solution z* of z = F(z),
    where F(z) = (sum x(z), prod(1 + x(z)) - 1 - sum x(z)) (_lift_map).

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
    meet it however high it goes, the others held (1 - a_s - L_k a_c <= 0,
    L_k = prod_{j != k}(1 + x_j) - 1); the iterates only rise, so every point
    above tau then fails too.  Otherwise the lift ends once F(z) - z no
    longer rises, or one step after a step below 1e-8 of 1 + u + v that
    raised no further node (across a kink of F a step is not quadratic),
    and returns the lifted tau (unmoved entries are tau's own) and the
    efficiencies c_k x_k / (u e_s + v e_c) at x(z).  tau entries are below 1.
    """
    x0 = [t / (1.0 - t) for t in tau]
    u, v, _, _ = _odds_states(x0)
    last, ups = False, 0
    while True:
        x, out, m, (f1, f2), (j11, j12, j21, j22), others = _lift_map(table, tau, x0, u, v)
        if out is None or not math.fsum(out) <= 1.0 + _SUM_SLACK:
            return None
        r1, r2 = f1 - u, f2 - v
        if r1 + r2 <= 0.0 or last and m <= ups:
            break
        d11, d22 = 1.0 - j11, 1.0 - j22
        det = d11 * d22 - j12 * j21
        if not (d11 > 0.0 and d22 > 0.0 and det > 0.0):
            return None
        du, dv = (d22 * r1 + j12 * r2) / det, (j21 * r1 + d11 * r2) / det
        last, ups = du + dv <= 1e-8 * (1.0 + u + v), m
        u, v = u + du, v + dv
    # The denominators only fall as the iterates rise, so the last one decides.
    etas = []
    for xk, lk, (as_, ac, _, c, e_s, e_c) in zip(x, others, table):
        if not 1.0 - as_ - lk * ac > 0.0:
            return None
        e_den = f1 * e_s + f2 * e_c
        etas.append(c * xk / e_den if e_den > 0.0 else 0.0)
    return out, etas


def _lift_many(table: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_lift of every row of taus at once: (lifted taus, efficiencies, ok).

    table is PayloadTable.odds at the probes' payloads.  Every probe, one
    column of the work arrays, runs _lift's guarded Newton iteration with
    the same end and drop rules.  A probe that ends or drops keeps its
    column and its (u, v), so each later pass recomputes its point bit for
    bit and the last pass holds every ended probe's point.  Every sum over
    the nodes runs in node order, so that point does not depend on the
    batch.  A dropped row has ok False and NaN entries.
    """
    a_s, a_c, a_i, c, e_s, e_c = (col[:, None] for col in table.T)
    a_sc = np.stack((a_s, a_c))
    every = np.logical_and.reduce
    with np.errstate(all="ignore"):   # a link that delivers nothing has a = inf
        t0 = taus.T.copy()
        x0 = t0 / (1.0 - t0)
        u, v, _, _ = _odds_states(x0)
        ok, run = np.zeros(len(taus), dtype=bool), np.ones(len(taus), dtype=bool)
        last, ups = False, 0
        while True:
            need = u * a_s + v * a_c + a_i
            up = need > x0
            x = np.where(up, need, x0)
            w = 1.0 + x
            t = np.where(up, np.maximum(x / w, t0), t0)
            live = (np.add.accumulate(t)[-1] <= 1.0 + _SUM_SLACK) & every(t < 1.0, axis=0)
            f1, f2, q, _ = _odds_states(x)
            p = 1.0 + q
            r1, r2 = f1 - u, f2 - v
            m = np.add.reduce(up, axis=0, dtype=int)
            done = run & live & ((r1 + r2 <= 0.0) | last & (m <= ups))
            ok |= done
            # _lift_map's J, with L_k = P / (1 + x_k) - 1: the kernel's own
            # leave-one-outs would cost the step about ten numpy calls more.
            g = np.where(up, a_sc, 0.0)
            j1 = np.add.accumulate(g, axis=1)[:, -1]
            (j11, j12), (j21, j22) = j1, p * np.add.accumulate(g / w, axis=1)[:, -1] - j1
            d11, d22 = 1.0 - j11, 1.0 - j22
            det = d11 * d22 - j12 * j21
            du, dv = (d22 * r1 + j12 * r2) / det, (j21 * r1 + d11 * r2) / det
            run &= live & ~done & (d11 > 0.0) & (d22 > 0.0) & (det > 0.0)
            if not run.any():
                break
            last, ups = du + dv <= 1e-8 * (1.0 + u + v), m
            u, v = np.where(run, u + du, u), np.where(run, v + dv, v)
        ok &= every(1.0 - a_s - (p / w - 1.0) * a_c > 0.0, axis=0)
        e_den = f1 * e_s + f2 * e_c
        eta = np.divide(c * x, e_den, out=np.zeros_like(x), where=e_den > 0.0)
    return np.where(ok, t, math.nan).T.copy(), np.where(ok, eta, math.nan).T.copy(), ok


def _logthr_newton(cols: tuple[np.ndarray, np.ndarray, float]) -> tuple[float, bool]:
    """Maximize sum_k log r_k over the access budget at fixed payloads.

    cols holds (t_s, t_c, t_idle): each node's success and collision slot
    times and the network's idle slot time.  Returns (tau, kkt), tau
    common to every node (module docstring).  In its log-odds s = log x,
    with u = n x and v = (1 + x)^n - 1 - n x, the objective is
    phi(s) = sum_k log c_k + n s - sum_k log D_k, and
    phi'(s) = n (1 - sum_k N_k / D_k), N_k = x (t_s,k + ((1 + x)^(n-1) - 1) t_c,k),
    falls from n to n - n^2.  If phi' >= 0 on the face x = 1 / (n - 1),
    tau = 1 / n; otherwise Newton steps on phi', bisecting where one
    leaves the bracket of its root, run to roundoff.  At the bracket's
    lower end, x = 1 / (2 K) with K = sum_k (t_s,k + 2 t_c,k) / t_idle,
    sum_k N_k / D_k < x K = 1/2, since below the face (1 + x)^(n-1) < e
    and D_k > t_idle.  kkt is True on the face, or where the Lagrangian's
    per-node derivative |phi'| / n is within _KKT_TOL.

    A lone node's rate c x / (t_s x + t_idle) rises with x up to c / t_s,
    so it returns tau = 1.
    """
    t_s, t_c, t_idle = cols
    n = len(t_s)
    if n == 1:
        return 1.0, True

    a, b = t_s / t_c, t_idle / t_c   # N_k / D_k with both divided by t_c,k

    def slope(s: float) -> tuple[float, float]:
        """(phi'(s), phi''(s))."""
        x = math.exp(s)
        v = _odds_states([x] * n)[1]
        q1 = ((n - 1) * x + v) / (1.0 + x)   # (1 + x)^(n-1) - 1, as u + v = (1 + x) q1 + x
        d = n * x * a + (v + b)
        num = x * (a + q1)
        r = num / d
        dnum = num + (n - 1) * x * x * (1.0 + q1) / (1.0 + x)   # dN_k / ds, over t_c,k
        return n * (1.0 - float(r.sum())), -n * float((dnum / d - n * r * r).sum())

    s = -math.log(n - 1)
    g, h = slope(s)
    if g >= 0.0:
        return 1.0 / n, True
    lo, hi = -math.log(2.0 * float(((t_s + 2.0 * t_c) / t_idle).sum())), s
    for _ in range(_NEWTON_STEPS):
        new = s - g / h
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        done = abs(new - s) <= 1e-12 * (1.0 + abs(s))   # Newton: this step ends at roundoff
        s = new
        g, h = slope(s)
        if done or g == 0.0:
            break
        if g > 0.0:
            lo = s
        else:
            hi = s
    return 1.0 / (1.0 + math.exp(-s)), abs(g) / n <= _KKT_TOL


def _repair_rates(net: NetworkModel, tau: Sequence[float], nts: Sequence[int]
                  ) -> Optional[tuple[list[float], tuple[float, ...], tuple[float, ...]]]:
    """Lift access probabilities onto every rate target, if the budget allows.

    Returns the lifted access vector (see _lift) with its rates and
    efficiencies from evaluate, or None.
    """
    lifted = _lift(net.payloads.odds(nts).tolist(), tau)
    if lifted is None:
        return None
    _, rates, etas = evaluate(net, lifted[0], nts, guard_zero_energy=True)
    return lifted[0], rates, etas


def _value(net: NetworkModel, variant: str, tau: Sequence[float], nts: Sequence[int]) -> float:
    _, rates, etas = evaluate(net, tau, nts, guard_zero_energy=True)
    return _objective_value(variant, rates, etas)


def _payload_switch(net: NetworkModel, variant: str, tau: list[float],
                    nts: list[int], value: float) -> Optional[tuple[list[float], list[int], float]]:
    """Move nodes to payloads that meet their rate target only with more access.

    The payload scan keeps each node on the payloads its current access
    probability already serves.  Here every other payload of a node is
    lifted to its minimum access probability, the others held, and ranked
    by the objective at that point, all payloads at once from the odds
    closed forms (see _lift); the best one is repaired once and kept if the
    objective rises.  Returns the improved point, or None if no node moved.
    """
    pay = net.payloads
    moved = False
    for k in range(net.n_nodes):
        _, _, e_s, e_c, _, c, _ = pay.at(nts)
        x = [t / (1.0 - t) for t in tau]
        uo, vo, lo, _ = _odds_states(x[:k] + x[k + 1:])   # lo = prod_{j != k}(1 + x_j) - 1
        c_k, a = pay.c[k], pay.a[k]
        with np.errstate(all="ignore"):
            a_s, a_c = a * pay.t_s[k], a * pay.t_c[k]
            den = 1.0 - a_s - lo * a_c
            y = (uo * a_s + vo * a_c + a * pay.t_idle) / den
            t_min = y / (1.0 + y)
            cand = (den > 0.0) & (t_min < 1.0) & (t_min > tau[k]) & (pay.nt != nts[k])
            if not cand.any():
                continue
            u = uo + y
            v = vo + lo * y
            cols = [np.tile(col, (len(y), 1)) for col in (x, c, e_s, e_c)]
            for col, own in zip(cols, (y, c_k, pay.e_s, pay.e_c)):
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


def _ee_bound(net: NetworkModel) -> float:
    """B', an upper bound on the EE objective of every rate-feasible point.

    rho_lo = v / u at the least fixed point of the lower map, lifted from
    tau = 0 by _lift on one row per node: the node's minima over the
    payload grid of a t_s, a t_c and a t_idle (module docstring,
    "Certificate exit").  rho_lo = 0 when no node has a target, and also
    if that lift fails, since rho >= 0 everywhere.
    """
    pay = net.payloads
    lower = [(pay.a * col).min(axis=1).tolist() for col in (pay.t_s, pay.t_c, pay.t_idle)]
    low = _lift([(s, cc, i, 0.0, 0.0, 0.0) for s, cc, i in zip(*lower)], [0.0] * net.n_nodes)
    rho = 0.0
    if low is not None:
        u, v, _, _ = _odds_states([t / (1.0 - t) for t in low[0]])
        if u > 0.0:
            rho = v / u
    with np.errstate(divide="ignore"):   # zero energies give an infinite bound
        return float(np.divide(pay.c, pay.e_s + rho * pay.e_c, out=np.zeros_like(pay.c),
                               where=pay.c > 0.0).max())


def _least_point(net: NetworkModel, nts: Sequence[int]
                 ) -> Optional[tuple[list[float], list[int]]]:
    """x* with its payloads, or None if a lift fails (module docstring, "Least point x*").

    Lifts tau = 0 onto the rate targets at nts (the least rate-feasible
    point there), moves every node to its best EE payload at that point
    (_polish_payloads), and repeats until the payloads stop changing, for
    at most _CERT_ROUNDS lifts; the last lift is returned with the payloads
    it was lifted at.
    """
    polished = list(nts)
    for _ in range(_CERT_ROUNDS):
        nts = polished
        lifted = _lift(net.payloads.odds(nts).tolist(), [0.0] * len(nts))
        if lifted is None:
            return None
        polished = _polish_payloads(net, VARIANT_EE, lifted[0], nts)
        if polished == nts:
            break
    return lifted[0], nts


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


def _solution(net: NetworkModel, variant: str, tau: Sequence[float], nts: Sequence[int],
              trace: tuple[float, ...], converged: bool, rates: tuple[float, ...],
              etas: tuple[float, ...], bound: Optional[float]) -> Solution:
    """The checked Solution at (tau, nts), whose rates and etas come from evaluate."""
    return _check_solution(net, Solution(
        tau_opt=tuple(tau),
        nt_opt=tuple(nts),
        variant_used=variant,
        trace=trace,
        feasible=_feasible(net, tau, rates),
        converged=converged,
        objective_value=_objective_value(variant, rates, etas),
        rates=rates,
        efficiencies=etas,
        upper_bound=bound,
    ))


def _holds_on_target(score: Callable[[list[float]], float], t: list[float], k: int,
                     lo: float, hi: float, here: float) -> bool:
    """Whether node k's 1-D search can be skipped at t, whose score is here.

    True where the probe with t[k] = lo scores as t does, so node k is on
    its target and the search's left side is flat, and the probe at
    min(hi, t[k] + _CONVERGENCE_TOL) scores no higher (module docstring,
    "Ascent from x*").
    """
    p = t[:]
    p[k] = lo
    if score(p) != here:
        return False
    p[k] = min(hi, t[k] + _CONVERGENCE_TOL)
    return score(p) <= here


def _coordinate_solve(net: NetworkModel, variant: str, start_tau: Sequence[float],
                      start_nts: Sequence[int], bound: Optional[float]) -> Solution:
    """Rate-constrained coordinate ascent on the EE or LogEE objective from a start point.

    See the module docstring for the moves of one round.  eecap() starts it
    at x*; every kept move raises the objective, so it ends at or above
    the start's.  bound is reported as Solution.upper_bound.

    A node whose probe at lo lifts to a point scoring as the current one
    sits on its rate target: the lift is monotone and the current point is
    rate-feasible, so every probe between lo and t[k] lifts to that point,
    and the search could only move t[k] up.  Where the first step up, by
    _CONVERGENCE_TOL, scores no higher either, the node's search is skipped
    (_holds_on_target).  The lifted profile above t[k] is not known to be
    unimodal, so such a node gives up the pre-scan's global look.  The
    current point's score is kept across the nodes of a round and
    refreshed after each commit.
    """
    n = net.n_nodes
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
        """Objective at probe after lifting every rate onto its target.

        A lifted probe scores from the odds closed forms, which can differ
        from evaluate in the last bits, so a move is committed only if its
        evaluate value also rises.
        """
        lifted = _lift(table, probe)
        if lifted is None:
            return -math.inf
        return _objective_value(variant, (), lifted[1])  # EE and LogEE read only etas

    def scan(probes: np.ndarray) -> np.ndarray:
        """score() of every row of probes, from the same closed forms in numpy."""
        _, etas, ok = _lift_many(odds, probes)
        return np.where(ok, _objective_rows(variant, etas), -math.inf)

    def commit(probe: list[float]) -> tuple[float, list[float]]:
        """The repaired probe and its objective from evaluate."""
        rep = _repair_rates(net, probe, nts)
        if rep is None:
            return -math.inf, probe
        return _objective_value(variant, rep[1], rep[2]), rep[0]

    trace: list[float] = []
    converged = False
    rounds = _MAX_OUTER_ITERS
    start = _repair_rates(net, t, nts)
    if start is None:
        rounds = 0  # no rate-feasible start: report the start point as it is
    else:
        t = start[0]
    nts = _polish_payloads(net, variant, t, nts)
    value = _value(net, variant, t, nts)

    for _ in range(rounds):
        prev_t, prev_nts = t[:], nts[:]
        odds = net.payloads.odds(nts)   # nts holds until the payload scan below
        table = odds.tolist()
        here = score(t)
        for k in range(n):
            rest = math.fsum(t) - t[k]
            hi = min(1.0 - tol, 1.0 - rest)
            if hi <= lo or _holds_on_target(score, t, k, lo, hi, here):
                continue

            def probe(x: float) -> list[float]:
                p = t[:]
                p[k] = x
                return p

            def probes(xs: np.ndarray) -> np.ndarray:
                p = np.empty((len(xs), n))
                p[:] = t
                p[:, k] = xs
                return p

            x, f = _maximize_scalar(lambda x: score(probe(x)), lambda xs: scan(probes(xs)), lo, hi, tol)
            if f > value:
                f, p = commit(probe(x))
                if f > value:
                    value, t = f, p
                    here = score(t)
        nts = _polish_payloads(net, variant, t, nts)
        if nts != prev_nts:
            value = _value(net, variant, t, nts)
        settled = nts == prev_nts and max(abs(a - b) for a, b in zip(t, prev_t)) <= _CONVERGENCE_TOL
        if settled:
            switched = _payload_switch(net, variant, t, nts, value)
            if switched is not None:
                t, nts, value = switched
                settled = False
        trace.append(value)
        if settled:
            converged = True
            break

    _, rates, etas = evaluate(net, t, nts, guard_zero_energy=True)
    return _solution(net, variant, t, nts, tuple(trace), converged, rates, etas, bound)


def _logthr_fallback(net: NetworkModel) -> Solution:
    """The LogTHR optimum: exact access solves alternated with the payload scan.

    Every node starts at the largest payload.  Each round solves the access
    probabilities exactly at the round's payloads (_logthr_newton: one
    common tau for all nodes), then moves every node to its
    throughput-optimal payload there (_polish_payloads); the trace holds
    the objective after each round.  Both moves only raise the objective,
    and the loop ends once the payloads stay, or after _MAX_OUTER_ITERS
    rounds.  converged means the payloads settled and the last access solve
    met its KKT conditions.
    """
    pay = net.payloads
    nts = [net.phy.n_t_max] * net.n_nodes
    trace: list[float] = []
    for _ in range(_MAX_OUTER_ITERS):
        t_s, t_c, *_ = pay.at(nts)
        t, kkt = _logthr_newton((t_s, t_c, pay.t_idle))
        tau = [t] * net.n_nodes
        polished = _polish_payloads(net, VARIANT_LOGTHR, tau, nts)
        settled, nts = polished == nts, polished
        trace.append(_value(net, VARIANT_LOGTHR, tau, nts))
        if settled:
            break
    _, rates, etas = evaluate(net, tau, nts, guard_zero_energy=True)
    return _solution(net, VARIANT_LOGTHR, tau, nts, tuple(trace), settled and kkt, rates, etas, None)


def eecap(net: NetworkModel, cfg: SolverConfig) -> Solution:
    """Full pipeline: stage, x*, then the certificate exit and the ascent, or the fallback.

    The module docstring has one section per path, in this order.  The
    fallback drops the rate targets: every node shares one access
    probability, and a lone node takes tau = 1, the whole channel.
    """
    _, nts0, ok = feasibility_stage(net)
    least = _least_point(net, nts0) if ok else None
    if least is None:
        return _logthr_fallback(net)
    tau, nts = least
    bound = None
    if cfg.objective == VARIANT_EE:
        bound = _ee_bound(net)
        _, rates, etas = evaluate(net, tau, nts, guard_zero_energy=True)
        value = math.fsum(etas)
        if value >= bound * (1.0 - _CERT_GAP):
            return _solution(net, VARIANT_EE, tau, nts, (value,), True, rates, etas, bound)
    return _coordinate_solve(net, cfg.objective, tau, nts, bound)
