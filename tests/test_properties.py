"""Property tests over random access vectors and random networks.

Hypothesis runs derandomized with a small example budget, so the suite
stays deterministic and fast.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eecap import (VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR, ChannelParams, SimConfig,
                   SolverConfig, build_network, eecap, evaluate, simulate)
from eecap.access import _leave_one_out, linear_coeffs, state_probs
from eecap.metrics import frame_success_prob
from eecap.solver import (_ee_bound, _lift, _lift_many, _logthr_newton, _polish_payloads,
                          _repair_rates, _value)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Access probabilities: the edges 0 and 1, values within 1e-12 of 1, and
# anything in between.
TAU = st.one_of(
    st.sampled_from((0.0, 1.0)),
    st.floats(0.0, 1e-12).map(lambda e: 1.0 - e),
    st.floats(0.0, 1.0),
)
NT_GRID = tuple(range(126, 2647, 63))


@PROPERTY_SETTINGS
@given(st.lists(TAU, min_size=1, max_size=24))
def test_state_probs_normalise(tau):
    sp = state_probs(tau)
    total = sp.p_success + sp.p_collision + sp.p_idle
    assert abs(total - 1.0) <= 1e-12
    for p in (sp.p_success, sp.p_collision, sp.p_idle, *sp.per_node_success):
        assert 0.0 <= p <= 1.0
    # The affine decomposition in each tau_k rebuilds the same probabilities.
    for k, t in enumerate(tau):
        if t < 1.0:
            lc = linear_coeffs(tau, k)
            assert abs(lc.x_s * t + lc.y_s - sp.p_success) <= 1e-12
            assert abs(lc.x_c * t + lc.y_c - sp.p_collision) <= 1e-12
            assert abs(lc.x_i * t + lc.y_i - sp.p_idle) <= 1e-12
    for k, got in enumerate(_leave_one_out(tau)):
        want = math.prod(1.0 - t for j, t in enumerate(tau) if j != k)
        assert abs(got - want) <= 1e-12


@st.composite
def networks(draw):
    n = draw(st.integers(1, 6))
    return (
        draw(st.lists(st.floats(1.0, 9.5), min_size=n, max_size=n)),
        draw(st.lists(TAU, min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(NT_GRID), min_size=n, max_size=n)),
        draw(st.integers(1, 5_000)),
        draw(st.integers(0, 2 ** 64 - 1)),
    )


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(networks())
def test_simulate_accounting(case):
    distances, tau, nts, m, seed = case
    net = build_network(distances, [0.0] * len(distances))
    rep = simulate(net, tau, nts, SimConfig(num_slots=m, seed=seed))
    assert sum(rep.per_node_success) == rep.n_success
    for k, t in enumerate(tau):
        assert rep.per_node_delivered[k] <= rep.per_node_success[k]
        if t == 0.0:
            assert rep.per_node_success[k] == 0
            assert rep.per_node_energy[k] == 0.0


def jacobi_leaves_budget(net, tau, nts) -> bool:
    """Reference for the rate repair: plain Jacobi iteration to its fixed point.

    Every node at once moves to x_k = max(x_k, r_min,k D_k / c_k), with
    D_k = u t_s,k + v t_c,k + t_idle the node's average slot duration per
    idle slot and c_k its payload bits per success slot, until nothing
    moves.  True when an iterate leaves the access budget (or a target
    needs tau_k = 1), which the iteration, only rising, never returns from.
    """
    nodes = []
    for k, (nm, n_t) in enumerate(zip(net.nodes, nts)):
        cost = net.cost(k, n_t)
        c = n_t * frame_success_prob(nm.seg, n_t, net.phy.n)
        if nm.r_min > 0.0 and c == 0.0:
            return True
        nodes.append((nm.r_min / c if nm.r_min > 0.0 else 0.0, cost.t_success, cost.t_collision,
                      cost.t_idle))
    x = [t / (1.0 - t) for t in tau]
    while True:
        taus = [xk / (1.0 + xk) for xk in x]
        if math.fsum(taus) > 1.0 + 1e-9 or max(taus) >= 1.0:
            return True
        u = math.fsum(x)
        v = math.prod([1.0 + xk for xk in x]) - 1.0 - u
        new = [max(xk, a * (u * t_s + v * t_c + t_idle)) for xk, (a, t_s, t_c, t_idle) in zip(x, nodes)]
        if new == x:
            return False
        x = new


@st.composite
def repair_cases(draw):
    """A network of up to 8 nodes, payloads, and a start access vector.

    Each rate target is zero or a random multiple, from 1e-300 to 3, of
    the node's rate when every node sends with probability 0.5 / n, so both
    sides of feasibility occur (subnormal targets underflow in the repair's
    products and are left out).  Start entries are zero or up to 1.2 / n,
    so some starts already exceed the access budget.
    """
    n = draw(st.integers(1, 8))
    distances = draw(st.lists(st.floats(1.0, 9.5), min_size=n, max_size=n))
    nts = draw(st.lists(st.sampled_from(NT_GRID), min_size=n, max_size=n))
    shares = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 3.0)), min_size=n, max_size=n))
    tau = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.2 / n)), min_size=n, max_size=n))
    _, rates, _ = evaluate(build_network(distances, [0.0] * n), [0.5 / n] * n, nts)
    return build_network(distances, [s * r for s, r in zip(shares, rates)]), tau, nts


# Eight nodes at 1 m near the edge of feasibility, where Jacobi steps climb
# slowly and the Newton guard on (u, v) decides: feasible at 2.45 Mbit/s in
# total, and infeasible at 2.6 and 2.7 Mbit/s.  FOLD sits at the fold itself,
# 2.48167 Mbit/s, where the least fixed point is critical and plain steps
# crawl, so only the lifts are compared there, not the Jacobi reference.
EDGE = [(build_network([1.0] * 8, [total / 8] * 8), [0.0] * 8, [2646] * 8)
        for total in (2.45e6, 2.6e6, 2.7e6)]
FOLD = (build_network([1.0] * 8, [2481673.51127322 / 8] * 8), [0.0] * 8, [2646] * 8)
# Two nodes at 1 m, probed where node 1 still meets its target and node 0
# does not: the first Newton step raises node 0 alone and is below 1e-8, and
# a lift that ended one step later left both rates 7e-10 short.
KINK = (build_network([1.0, 1.0], [6e5, 3e5]), [0.07615430372261425, 0.03958441621455994],
        [2646, 2646])


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(repair_cases())
@example(EDGE[0])
@example(EDGE[1])
@example(EDGE[2])
@example(KINK)
def test_rate_repair_is_the_least_feasible_lift(case):
    net, tau, nts = case
    rep = _repair_rates(net, tau, nts)
    assert (rep is None) == jacobi_leaves_budget(net, tau, nts)
    if rep is None:
        return
    lifted, rates, _ = rep
    assert math.fsum(lifted) <= 1.0 + 1e-9
    for k, nm in enumerate(net.nodes):
        assert lifted[k] >= tau[k]
        assert rates[k] >= nm.r_min * (1.0 - 1e-12)
        if lifted[k] > tau[k]:
            # Least: a little less access and the node misses its own target.
            lower = list(lifted)
            lower[k] *= 1.0 - 1e-9
            _, lower_rates, _ = evaluate(net, lower, nts)
            assert lower_rates[k] < nm.r_min


@st.composite
def probe_batches(draw):
    """A network of up to 16 nodes with rate targets, payloads and a batch of probes.

    Targets are as in repair_cases.  Probe entries are zero or between
    1e-9 and 1.2 / n (below 0.99): the 1-D searches never probe subnormal
    access probabilities, whose products underflow in evaluate.
    """
    n = draw(st.integers(1, 16))
    distances = draw(st.lists(st.floats(1.0, 9.5), min_size=n, max_size=n))
    nts = draw(st.lists(st.sampled_from(NT_GRID), min_size=n, max_size=n))
    shares = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 3.0)), min_size=n, max_size=n))
    entry = st.one_of(st.just(0.0), st.floats(1e-9, min(1.2 / n, 0.99)))
    probes = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8))
    _, rates, _ = evaluate(build_network(distances, [0.0] * n), [0.5 / n] * n, nts)
    return build_network(distances, [s * r for s, r in zip(shares, rates)]), nts, probes


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(probe_batches())
@example((EDGE[0][0], EDGE[0][2], [EDGE[0][1], [0.05] * 8]))
@example((EDGE[1][0], EDGE[1][2], [EDGE[1][1], [0.05] * 8]))
@example((FOLD[0], FOLD[2], [FOLD[1], [0.05] * 8]))
def test_batched_lift_matches_the_scalar_lift(case):
    net, nts, probes = case
    odds = net.payloads.odds(nts)
    out, etas, ok = _lift_many(odds, np.array(probes))
    for row, got, got_etas, got_ok in zip(probes, out, etas, ok):
        want = _lift(odds.tolist(), row)
        assert got_ok == (want is not None)
        if want is not None:
            assert np.abs(got - want[0]).max() <= 1e-12
            assert np.allclose(got_etas, want[1], rtol=1e-12, atol=0.0)


@st.composite
def fallback_cases(draw):
    """A network of 2 to 8 nodes at 1 to 9.5 m that the solve sends to LogTHR.

    Every rate target is 1e9 bit/s, out of reach, and the fallback drops
    the targets.  The channel is the default one or the weak link of
    nodes_sweep.ini, whose long bursts often put the optimum on the budget
    face sum tau = 1.  The seed draws the sampled points of the budget.
    """
    n = draw(st.integers(2, 8))
    distances = draw(st.lists(st.floats(1.0, 9.5), min_size=n, max_size=n))
    channel = ChannelParams(tx_eb_over_n0_at_d0=draw(st.sampled_from((5530.0, 500.0))))
    return build_network(distances, [1e9] * n, channel=channel), draw(st.integers(0, 2 ** 32 - 1))


def budget_samples(rng, tau, count: int) -> list:
    """Points of the access budget: uniform over the simplex, and near tau.

    A point near tau moves every log-odds by up to 1e-3 and, if it then
    leaves the budget, is scaled back onto sum tau = 1.
    """
    n = len(tau)
    points = [list(w[:n] / w.sum()) for w in rng.exponential(size=(count, n + 1))]
    y = np.log(np.array(tau) / (1.0 - np.array(tau)))
    for step in rng.uniform(-1e-3, 1e-3, size=(count, n)):
        near = 1.0 / (1.0 + np.exp(-(y + step)))
        points.append(list(near / max(near.sum(), 1.0)))
    return points


def common_phi(cols, s):
    """The LogTHR objective with every node at log-odds s, for every entry of s.

    u = n x and v = (1 + x)^n - 1 - n x at the common odds x = e^s.
    """
    t_s, t_c, t_idle, c = cols
    n = len(c)
    s = np.asarray(s, dtype=float)
    x = np.exp(s)[:, None]
    d = n * x * t_s + ((1.0 + x) ** n - 1.0 - n * x) * t_c + t_idle
    return np.log(c).sum() + n * s - np.log(d).sum(axis=1)


def common_slope(cols, s):
    """phi'(s) / n to 30 digits: the LogTHR objective's derivative in one node's log-odds."""
    t_s, t_c, t_idle, _ = cols
    n = len(t_s)
    with mpmath.workdps(30):
        x = mpmath.exp(s)
        total = mpmath.mpf(0)
        for ts, tc in zip(map(float, t_s), map(float, t_c)):
            d = n * x * ts + ((1 + x) ** n - 1 - n * x) * tc + t_idle
            total += x * (ts + ((1 + x) ** (n - 1) - 1) * tc) / d
        return 1 - total


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(fallback_cases())
def test_fallback_is_the_logthr_optimum(case):
    net, seed = case
    n = net.n_nodes
    sol = eecap(net, SolverConfig())
    assert sol.variant_used == VARIANT_LOGTHR and sol.converged
    tau, nts = list(sol.tau_opt), list(sol.nt_opt)
    pay = net.payloads
    t_s, t_c, _, _, _, c, _ = pay.at(nts)
    cols = (t_s, t_c, pay.t_idle, c)
    # The core, run at the returned payloads, gives every node the returned
    # tau, and the closed-form objective there is evaluate's.
    t, kkt = _logthr_newton(cols[:3])
    assert kkt and tau == [t] * n
    want = _value(net, VARIANT_LOGTHR, tau, nts)
    assert want == sol.objective_value
    s = math.log(t / (1.0 - t))
    assert abs(common_phi(cols, [s])[0] - want) <= 1e-12 * abs(want)
    # KKT: each node's log-odds derivative g (checked against central
    # differences of evaluate's objective) is mu d tau / dy, mu >= 0, and
    # mu > 0 only on the face tau = 1 / n, where the core returns 1 / n.
    g = float(common_slope(cols, s))
    mu = g / (t * (1.0 - t)) if t == 1.0 / n else 0.0
    y = np.full(n, s)
    h = 1e-5
    for k in range(n):
        up, down = y.copy(), y.copy()
        up[k] += h
        down[k] -= h
        fd = (_value(net, VARIANT_LOGTHR, list(1.0 / (1.0 + np.exp(-up))), nts)
              - _value(net, VARIANT_LOGTHR, list(1.0 / (1.0 + np.exp(-down))), nts)) / (2.0 * h)
        assert abs(fd - g) <= 1e-6
    assert abs(g - mu * t * (1.0 - t)) <= 1e-9
    assert mu >= 0.0 and math.fsum(tau) <= 1.0 + 1e-9
    assert mu == 0.0 or abs(math.fsum(tau) - 1.0) <= 1e-9
    # Off the face, tau is the root of phi' to roundoff.
    if mu == 0.0:
        root = mpmath.findroot(lambda z: common_slope(cols, z), s)
        assert abs(t - float(1 / (1 + mpmath.exp(-root)))) <= 1e-13 * t
    # A dense scan of phi up to the face finds nothing higher, and its best
    # point is the solve's.
    s_face = -math.log(n - 1)
    scan = np.linspace(s_face - 20.0, s_face, 40_001)
    phi = common_phi(cols, scan)
    assert phi.max() <= want + 1e-12 * abs(want)
    assert scan[0] < s and abs(scan[np.argmax(phi)] - s) <= scan[1] - scan[0]
    # No point of the access budget, equal taus or not, scores higher at
    # these payloads.
    for point in budget_samples(np.random.default_rng(seed), tau, 20):
        assert _value(net, VARIANT_LOGTHR, point, nts) <= want + 1e-12 * abs(want)


def test_a_lone_node_takes_the_whole_channel():
    # Alone, a node's rate c x / (t_s x + t_idle) rises with its odds x, so
    # the fallback's optimum is tau = 1 exactly, at the payload of the best c / t_s.
    for d in (1.0, 4.45, 9.5):
        net = build_network([d], [1e9])
        sol = eecap(net, SolverConfig())
        assert sol.variant_used == VARIANT_LOGTHR and sol.converged
        assert sol.tau_opt == (1.0,)
        pay = net.payloads
        best = pay.c[0] / pay.t_s[0]
        assert sol.nt_opt == (int(pay.nt[np.argmax(best)]),)
        assert sol.objective_value == pytest.approx(math.log(best.max()), rel=1e-14)
        assert all(_value(net, VARIANT_LOGTHR, [t], sol.nt_opt) < sol.objective_value
                   for t in (0.5, 0.9, 1.0 - 1e-5))


def payload_scan_loop(net, variant, tau, nts):
    """Reference for the payload scan: one node and one payload at a time.

    Per node, the first payload with the largest objective term (rate in
    the fallback, efficiency otherwise) among those within 1e-9 of the
    node's rate target; the current payload if none is.
    """
    sp = state_probs(tau)
    out = list(nts)
    for k, nm in enumerate(net.nodes):
        best_val = -math.inf
        for n_t in net.phy.nt_grid():
            cost = net.cost(k, n_t)
            num = n_t * sp.per_node_success[k] * frame_success_prob(nm.seg, n_t, net.phy.n)
            r = num / (sp.p_success * cost.t_success + sp.p_collision * cost.t_collision
                       + sp.p_idle * cost.t_idle)
            if variant == VARIANT_LOGTHR:
                val = r
            elif r < nm.r_min * (1.0 - 1e-9):
                continue
            else:
                den_e = sp.p_success * cost.e_success + sp.p_collision * cost.e_collision
                val = num / den_e if den_e > 0.0 else 0.0
            if val > best_val:
                best_val, out[k] = val, n_t
    return out


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(probe_batches(), st.sampled_from((VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR)))
def test_payload_scan_matches_the_loop(case, variant):
    net, nts, probes = case
    for tau in probes:
        assert _polish_payloads(net, variant, tau, nts) == payload_scan_loop(net, variant, tau, nts)


@st.composite
def bound_cases(draw):
    """A network of up to 8 nodes at 1 to 9.5 m, with probes at random payloads.

    Each rate target is zero or 0.05 to 1 times the node's rate when every
    node sends with probability 0.5 / n at the largest payload, so most
    networks are feasible and some nodes have no target.  A probe is a
    payload vector and a start access vector with entries up to 1.2 / n.
    """
    n = draw(st.integers(1, 8))
    distances = draw(st.lists(st.floats(1.0, 9.5), min_size=n, max_size=n))
    shares = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=n, max_size=n))
    probe = st.tuples(st.lists(st.sampled_from(NT_GRID), min_size=n, max_size=n),
                      st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.2 / n)), min_size=n, max_size=n))
    probes = draw(st.lists(probe, min_size=1, max_size=6))
    _, rates, _ = evaluate(build_network(distances, [0.0] * n), [0.5 / n] * n, [NT_GRID[-1]] * n)
    return build_network(distances, [s * r for s, r in zip(shares, rates)]), probes


def ratio_bound(pay, tau) -> float:
    """max over nodes and payloads of c / (e_s + rho e_c), at rho = v / u of tau."""
    u = v = q = 0.0   # v = sum_k x_k (prod_{j<k} (1 + x_j) - 1)
    for t in tau:
        x = t / (1.0 - t)
        u, v, q = u + x, v + x * q, q + x * (1.0 + q)
    rho = v / u if u > 0.0 else 0.0
    return float((pay.nt * pay.f / (pay.e_s + rho * pay.e_c)).max())


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(bound_cases())
def test_the_ee_bound_holds_everywhere(case):
    # B' bounds the EE objective of every rate-feasible point at any payloads:
    # the solve's own result and every lifted probe.  It is the bound at the
    # least rho = v / u of all those points, so it also covers the bound at
    # each probe's own rho.
    net, probes = case
    sol = eecap(net, SolverConfig(objective=VARIANT_EE))
    if sol.variant_used == VARIANT_EE:
        bound = sol.upper_bound
        assert bound >= sol.objective_value * (1.0 - 1e-12)
    else:   # the bound still holds wherever a rate-feasible point exists
        assert sol.upper_bound is None
        bound = _ee_bound(net)
    # Also the least rate-feasible point at the payloads the solve returned.
    for nts, tau in probes + [(sol.nt_opt, [0.0] * net.n_nodes)]:
        lifted = _lift(net.payloads.odds(nts).tolist(), tau)
        if lifted is not None:
            _, _, etas = evaluate(net, lifted[0], nts, guard_zero_energy=True)
            assert math.fsum(etas) <= bound * (1.0 + 1e-12)
            assert ratio_bound(net.payloads, lifted[0]) <= bound * (1.0 + 1e-12)
