"""Acceptance suite: one test per shipped guarantee, one pass line each.

Each criterion states its tolerance and, where relevant, its runtime
budget.  Oracles are computed independently inside this module: exact
rational arithmetic for the code tails, finite differences for the
derivative, plug-back evaluation for the rate threshold, exhaustive scans
for the payload optimum, and a dense constrained grid search for the
two-node solver comparison.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from eecap import (
    ChannelParams,
    EnergyParams,
    PhyConfig,
    SolverConfig,
    TimingParams,
    VARIANT_EE,
    VARIANT_LOGEE,
    VARIANT_LOGTHR,
    build_network,
    eecap,
    evaluate,
)
from eecap.access import state_probs
from eecap.cli import main
from eecap.phy import SegmentProbs, _binomial_tail
from eecap.solver import _lift, _lift_map, _polish_payloads, feasibility_stage
from oracles import (
    Node,
    aggregate_terms,
    cost_model,
    energy_efficiency,
    frame_success_prob,
    linear_coeffs,
    nt_opt_for_throughput,
    tau_min_for_rate,
    throughput,
    throughput_derivative_tau,
)

PHY = PhyConfig()
GRID = list(PHY.nt_grid())

SOLVE_SCN = "scenarios/two_node_1m.ini"
FIXED_SCN = "scenarios/two_node_1m_fixed.ini"
NODES_SCN = "scenarios/nodes_sweep.ini"
DIST_SCN = "scenarios/distance_sweep.ini"


def random_metric_setup(rng: random.Random):
    """Random access vector, cost model and segment probabilities.

    The node's symbol period is a random burst length times the base one,
    and its propagation delay one of n random delays.
    """
    n = rng.randrange(1, 6)
    tau = [rng.uniform(0.02, 0.5) for _ in range(n)]
    k = rng.randrange(n)
    n_t = rng.choice(GRID)
    t_sym = PHY.t_sym * rng.choice((1, 2, 4, 8))
    sigma = [rng.uniform(1e-9, 3e-8) for _ in range(n)]
    cost = cost_model(n_t, t_sym, sigma[k], TimingParams(), EnergyParams())
    seg = SegmentProbs(p_shr=rng.uniform(0.6, 1.0), p_phr=rng.uniform(0.6, 1.0),
                       p_cw=rng.uniform(0.9, 1.0))
    return tau, k, n_t, t_sym, cost, seg


def test_c1_state_probability_normalization():
    """1,000 random access vectors: states normalize and reconstruct affinely."""
    t0 = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 11)
        tau = [rng.uniform(0.0, 0.9) for _ in range(n)]
        sp = state_probs(tau)
        worst = max(worst, abs(sp.p_success + sp.p_collision + sp.p_idle - 1.0))
        assert abs(sp.p_success + sp.p_collision + sp.p_idle - 1.0) <= 1e-12
        for k in range(n):
            if tau[k] == 1.0:
                continue
            lc = linear_coeffs(tau, k)
            t = tau[k]
            for got, want in ((lc.x_s * t + lc.y_s, sp.p_success),
                              (lc.x_c * t + lc.y_c, sp.p_collision),
                              (lc.x_i * t + lc.y_i, sp.p_idle)):
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: normalization and affine reconstruction "
          f"(max err {worst:.2e}, {elapsed:.2f} s < 1 s)")


def test_c2_binomial_tail_oracle():
    """Code tails match exact rational arithmetic at p in {1/2, 1/4, 1/8}."""

    def exact(n: int, t: int, p: Fraction) -> Fraction:
        return sum(Fraction(math.comb(n, i)) * p**i * (1 - p) ** (n - i)
                   for i in range(t + 1))

    # The three code geometries in use, at the three reference error rates.
    worst = 0.0
    for n, t in ((63, 6), (40, 2), (63, 2)):
        for p in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            want = exact(n, t, p)
            got = _binomial_tail(n, t, float(p))
            rel = abs(got - float(want)) / float(want)
            worst = max(worst, rel)
            assert rel <= 1e-12
    # The exact p = 1/2 sums reduce to known integer numerators.
    assert exact(63, 6, Fraction(1, 2)) == Fraction(75_611_761, 2**63)
    assert exact(40, 2, Fraction(1, 2)) == Fraction(821, 2**40)
    assert exact(63, 2, Fraction(1, 2)) == Fraction(2017, 2**63)
    print(f"\n[PASS] criterion 2: binomial tails vs exact rationals "
          f"(max rel err {worst:.2e} <= 1e-12)")


def lift_jacobian_error(tau, n_t, cost, seg, raised) -> float:
    """Largest relative gap between the lift's Jacobian and central differences of its map.

    Every node asks for odds a_j (u t_s + v t_c + t_idle), with a_j set so
    that at z0, the aggregates of tau, it asks for exactly its odds; the
    nodes not in raised start above that, at twice their odds, and stay
    held.  F is then a polynomial near z0, and _lift_map's J is its
    derivative there.
    """
    n = len(tau)
    x = [t / (1.0 - t) for t in tau]
    u0 = math.fsum(x)
    v0 = math.prod([1.0 + xj for xj in x]) - 1.0 - u0
    d0 = u0 * cost.t_success + v0 * cost.t_collision + cost.t_idle
    c = n_t * frame_success_prob(seg, n_t)
    table = [(xj / d0 * cost.t_success, xj / d0 * cost.t_collision, xj / d0 * cost.t_idle,
              c, cost.e_success, cost.e_collision) for xj in x]
    x0 = [0.0 if j in raised else 2.0 * xj for j, xj in enumerate(x)]
    _, _, m, _, jac, _ = _lift_map(table, [0.0] * n, x0, u0, v0)
    assert m == len(raised)
    worst = 0.0
    for col, (du, dv) in enumerate(((1e-6 * u0, 0.0), (0.0, 1e-6 * u0))):
        hi = _lift_map(table, [0.0] * n, x0, u0 + du, v0 + dv)[3]
        lo = _lift_map(table, [0.0] * n, x0, u0 - du, v0 - dv)[3]
        step = 2.0 * (du + dv)
        for row in range(2):
            fd = (hi[row] - lo[row]) / step
            got = jac[2 * row + col]
            if got != fd:
                worst = max(worst, abs(got - fd) / max(abs(fd), abs(got)))
    return worst


def test_c3_throughput_derivative():
    """Closed-form derivative: non-negative, matches finite differences.

    The same cases pin the Jacobian (j11, j12, j21, j22) of the lift's map
    F, which _lift's Newton step uses, to central differences of F: with
    every node raised, and with node k alone raised.
    """
    rng = random.Random(77)
    checked = 0
    worst = worst_jac = 0.0
    while checked < 200:
        tau, k, n_t, t_sym, cost, seg = random_metric_setup(rng)
        if not 1e-3 < tau[k] < 0.999:
            continue
        for raised in (set(range(len(tau))), {k}):
            err = lift_jacobian_error(tau, n_t, cost, seg, raised)
            worst_jac = max(worst_jac, err)
            assert err <= 1e-4
        node = Node(index=k, d=1.0, tau=tau[k], n_t=n_t, r_min=0.0)
        terms = aggregate_terms(tau, k, cost, n_t, t_sym)
        assert terms.yt >= 0.0
        got = throughput_derivative_tau(node, tau, cost, seg)
        assert got >= 0.0
        h = 1e-6
        hi, lo = list(tau), list(tau)
        hi[k] += h
        lo[k] -= h
        r_hi = throughput(Node(k, 1.0, hi[k], n_t, 0.0), state_probs(hi), cost, seg)
        r_lo = throughput(Node(k, 1.0, lo[k], n_t, 0.0), state_probs(lo), cost, seg)
        fd = (r_hi - r_lo) / (2 * h)
        rel = abs(got - fd) / max(abs(fd), 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-4
        checked += 1
    print(f"\n[PASS] criterion 3: derivative >= 0, matches finite differences "
          f"on {checked} configs (max rel err {worst:.2e} <= 1e-4; lift Jacobian "
          f"{worst_jac:.2e} <= 1e-4)")


def test_c4_rate_threshold_self_consistency():
    """Smallest rate-meeting access probability reproduces the target rate.

    The solver's least lift must find the same point: from the node's tau
    set to zero, the others held, _lift on the node's odds row (its target
    only) meets the rate, unless the threshold point breaks the access budget.
    """
    rng = random.Random(88)
    checked = lifts = 0
    worst = 0.0
    while checked < 200:
        tau, k, n_t, _, cost, seg = random_metric_setup(rng)
        cap_tau = list(tau)
        cap_tau[k] = 1.0 - 1e-9
        cap = throughput(Node(k, 1.0, cap_tau[k], n_t, 0.0),
                         state_probs(cap_tau), cost, seg)
        r_target = rng.uniform(0.05, 0.95) * cap
        probe = Node(index=k, d=1.0, tau=tau[k], n_t=n_t, r_min=r_target)
        t_min = tau_min_for_rate(probe, tau, cost, seg)
        if t_min is None:
            continue
        back = list(tau)
        back[k] = t_min
        got = throughput(Node(k, 1.0, t_min, n_t, r_target),
                         state_probs(back), cost, seg)
        rel = abs(got - r_target) / r_target
        worst = max(worst, rel)
        assert rel <= 1e-9
        checked += 1

        c = n_t * frame_success_prob(seg, n_t)
        a = r_target / c
        table = [(0.0,) * 6] * len(tau)
        table[k] = (a * cost.t_success, a * cost.t_collision, a * cost.t_idle,
                    c, cost.e_success, cost.e_collision)
        lifted = _lift(table, tau[:k] + [0.0] + tau[k + 1:])
        if lifted is None:
            assert math.fsum(back) > 1.0
            continue
        t = lifted[0]
        assert t[:k] == tau[:k] and t[k + 1:] == tau[k + 1:]
        got = throughput(Node(k, 1.0, t[k], n_t, r_target), state_probs(t), cost, seg)
        rel = abs(got - r_target) / r_target
        worst = max(worst, rel)
        assert rel <= 1e-9
        lifts += 1
    print(f"\n[PASS] criterion 4: rate threshold plug-back on {checked} feasible "
          f"cases, {lifts} of them lifted in budget (max rel err {worst:.2e} <= 1e-9)")


def test_c5_payload_optimum_exactness():
    """Closed-form payload size, the solver's payload scan and the stage's payloads meet the argmax."""
    rng = random.Random(99)
    for _ in range(200):
        tau, k, n_t, t_sym, cost, seg = random_metric_setup(rng)
        terms = aggregate_terms(tau, k, cost, n_t, t_sym)
        got = nt_opt_for_throughput(seg.p_cw, terms, GRID)

        def gain(size: int) -> float:
            return size * seg.p_cw ** (size // 63) / (terms.to + terms.tn * size)

        best = max(gain(size) for size in GRID)
        assert gain(got) == pytest.approx(best, rel=1e-12)
    terms = aggregate_terms((0.2, 0.2), 0, cost_model(126, PHY.t_sym, 0.0, TimingParams(),
                                                      EnergyParams()), 126, PHY.t_sym)
    assert nt_opt_for_throughput(1.0, terms, GRID) == 2646
    # The payload scan the solver runs (_polish_payloads), on 200 seeded
    # networks: per node, the best admitted payload by the scalar throughput
    # and efficiency oracles.  EE and LogEE admit the node's current payload
    # and every payload whose rate meets the node's target, the scan's own
    # rule, and score them by efficiency; the LogTHR fallback drops the
    # targets and scores by rate.  The feasibility stage's payloads, on the
    # same networks, must be the closed form's at the stage's fixed point.
    rng = random.Random(599)
    worst = 0.0
    kept = staged = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        d = [rng.uniform(1.0, 9.5) for _ in range(n)]
        probe = build_network(d, [0.0] * n)
        _, rates, _ = evaluate(probe, [0.5 / n] * n, [PHY.n_t_max] * n)
        net = build_network(d, [rng.uniform(0.2, 0.8) * r for r in rates])
        stage_tau, stage_nts, ok = feasibility_stage(net)
        for k, nm in enumerate(net.nodes if ok else ()):
            terms = aggregate_terms(stage_tau, k, net.cost(k, stage_nts[k]), stage_nts[k],
                                    nm.t_sym)
            assert stage_nts[k] == nt_opt_for_throughput(nm.seg.p_cw, terms, GRID)
            staged += 1
        w = [rng.expovariate(1.0) for _ in range(n + 1)]
        tau = [x / sum(w) for x in w[:n]]
        nts = [rng.choice(GRID) for _ in range(n)]
        sp = state_probs(tau)
        for variant in (VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR):
            got = _polish_payloads(net, variant, tau, nts)
            for k, nm in enumerate(net.nodes):
                score = {}
                for size in GRID:
                    node = Node(k, nm.d, tau[k], size, nm.r_min)
                    cost = net.cost(k, size)
                    r = throughput(node, sp, cost, nm.seg, net.phy.n)
                    if variant == VARIANT_LOGTHR:
                        score[size] = r
                    elif size == nts[k] or r >= nm.r_min:
                        score[size] = energy_efficiency(node, sp, cost, nm.seg, net.phy.n)
                kept += list(score) == [nts[k]]
                best = max(score.values())
                assert got[k] in score
                assert score[got[k]] == pytest.approx(best, rel=1e-12, abs=0.0)
                if best > 0.0:
                    worst = max(worst, (best - score[got[k]]) / best)
    assert staged > 200
    print(f"\n[PASS] criterion 5: payload optimum equals exhaustive scan on 200 "
          f"cases; perfect code picks 2646; the solver's payload scan meets the "
          f"oracle optimum on 200 networks x 3 variants (max rel shortfall {worst:.2e}, "
          f"{kept} nodes admit only their current payload); the feasibility "
          f"stage's payloads meet it on {staged} nodes")


def grid_search_ee(net, step: float = 1e-3) -> float:
    """Best rate-constrained total efficiency on a dense two-node tau grid."""
    taus = np.arange(step, 1.0, step)
    # Only the grid points inside the access budget t1 + t2 <= 1 count.
    i, j = np.nonzero(taus[:, None] + taus[None, :] <= 1.0)
    t1 = taus[i]
    t2 = taus[j]
    p1s = t1 * (1.0 - t2)
    p2s = t2 * (1.0 - t1)
    p_idle = (1.0 - t1) * (1.0 - t2)
    p_coll = t1 * t2
    p_succ = p1s + p2s
    total = np.zeros_like(p1s)
    for k in range(2):
        pks = p1s if k == 0 else p2s
        r_min = net.nodes[k].r_min
        best = np.full(p1s.shape, -np.inf)
        ok = np.zeros(p1s.shape, dtype=bool)
        for n_t in GRID:
            cost = net.cost(k, n_t)
            num = n_t * pks * frame_success_prob(net.nodes[k].seg, n_t, net.phy.n)
            dur = p_succ * cost.t_success + p_coll * cost.t_collision + p_idle * cost.t_idle
            energy = p_succ * cost.e_success + p_coll * cost.e_collision
            rate = num / dur
            eta = num / energy
            sel = rate >= r_min * (1.0 - 1e-9)
            ok |= sel
            best = np.where(sel & (eta > best), eta, best)
        total = total + np.where(ok, best, -np.inf)
    return float(total.max())


def test_c6_solver_vs_brute_force():
    """Ten random feasible two-node scenarios within 2% of the grid optimum, which B' bounds."""
    t0 = time.perf_counter()
    rng = random.Random(123)
    worst = 0.0
    for case in range(10):
        ds = [rng.uniform(0.5, 6.0) for _ in range(2)]
        probe = build_network(ds, [0.0, 0.0])
        _, rates, _ = evaluate(probe, (0.3, 0.3), (2646, 2646))
        r_mins = [rng.uniform(0.2, 0.8) * r for r in rates]
        net = build_network(ds, r_mins)
        sol = eecap(net, SolverConfig(objective=VARIANT_EE))
        assert sol.feasible, f"case {case} unexpectedly infeasible"
        assert sol.variant_used == VARIANT_EE
        reference = grid_search_ee(net)
        rel = abs(sol.objective_value - reference) / reference
        worst = max(worst, rel)
        assert rel <= 0.02, f"case {case}: solver {sol.objective_value} vs grid {reference}"
        assert sol.upper_bound >= reference, f"case {case}: bound {sol.upper_bound} below the grid"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 6: solver within 2% of dense grid search on 10 "
          f"scenarios, under its bound (max rel gap {worst:.2e}, {elapsed:.1f} s < 60 s)")


def test_c7_monte_carlo_gate(capsys):
    """validate at one million slots keeps every |z| at or below 4."""
    t0 = time.perf_counter()
    rc = main(["validate", "--scenario", FIXED_SCN, "--slots", "1000000", "--seed", "0"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert elapsed < 10.0
    zs = [abs(float(row.split(",")[5])) for row in out[1:]]
    assert zs and max(zs) <= 4.0
    print(f"\n[PASS] criterion 7: Monte Carlo gate at 1e6 slots "
          f"(max |z| = {max(zs):.2f} <= 4, {elapsed:.1f} s < 10 s)")


def test_c8a_nodes_sweep_trends(capsys):
    """Growing the network shrinks per-node access, grows the total."""
    rc = main(["sweep", "--scenario", NODES_SCN, "--axis", "nodes",
               "--from", "2", "--to", "10"])
    assert rc == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 9
    per_node = [float(r[11]) for r in rows]   # tau of node 0
    total = [float(r[6]) for r in rows]       # sum of tau
    assert all(a >= b - 1e-9 for a, b in zip(per_node, per_node[1:]))
    assert per_node[0] > per_node[-1]
    assert all(b >= a - 1e-9 for a, b in zip(total, total[1:]))
    print(f"\n[PASS] criterion 8a: nodes sweep 2..10, per-node access "
          f"{per_node[0]:.3f} -> {per_node[-1]:.3f} non-increasing, total non-decreasing")


def test_c8b_rate_sweep_trends(capsys):
    """Access grows with demand, then the fallback takes over past the ceiling."""
    rc = main(["sweep", "--scenario", SOLVE_SCN, "--axis", "rate",
               "--from", "2e5", "--to", "2.4e6", "--steps", "12"])
    assert rc == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    variants = [r[3] for r in rows]
    tau0 = [float(r[11]) for r in rows]
    ee_taus = [t for t, v in zip(tau0, variants) if v == VARIANT_EE]
    assert len(ee_taus) >= 3
    assert all(a < b for a, b in zip(ee_taus, ee_taus[1:]))
    assert variants[-1] == VARIANT_LOGTHR
    flip = variants.index(VARIANT_LOGTHR)
    assert all(v == VARIANT_EE for v in variants[:flip])
    assert all(v == VARIANT_LOGTHR for v in variants[flip:])
    print(f"\n[PASS] criterion 8b: rate sweep, access increasing over {len(ee_taus)} "
          f"feasible points, fallback from point {flip}")


def test_c8c_distance_sweep_trends(capsys):
    """Longer links cost efficiency and collapse the optimal frame size."""
    rc = main(["sweep", "--scenario", DIST_SCN, "--axis", "distance",
               "--from", "1", "--to", "10", "--steps", "10"])
    assert rc == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    sum_eta = [float(r[8]) for r in rows]
    max_nt = [int(r[13]) for r in rows]
    n_cpb = [int(r[5]) for r in rows]
    assert all(a >= b * (1.0 - 1e-9) for a, b in zip(sum_eta, sum_eta[1:]))
    assert sum_eta[0] > sum_eta[-1]
    assert all(a >= b for a, b in zip(max_nt, max_nt[1:]))
    assert max_nt[0] == 2646 and max_nt[-1] == 126
    assert all(a <= b for a, b in zip(n_cpb, n_cpb[1:]))
    print(f"\n[PASS] criterion 8c: distance sweep, total efficiency non-increasing "
          f"({sum_eta[0]:.3g} -> {sum_eta[-1]:.3g}), frame size 2646 -> 126")


def test_c8d_fairness_variant_comparison():
    """Log-efficiency spreads access more evenly than plain sum efficiency."""
    net = build_network([1.0, 1.0], [1e6, 5e5])
    sol_ee = eecap(net, SolverConfig(objective=VARIANT_EE))
    sol_log = eecap(net, SolverConfig(objective=VARIANT_LOGEE))
    assert sol_ee.feasible and sol_log.feasible
    for r, nm in zip(sol_ee.rates, net.nodes):
        assert r >= nm.r_min * (1.0 - 2e-4)
    # Reference access pairs under shipped calibration, checked to +-25%.
    for got, want in zip(sol_ee.tau_opt, (0.1430, 0.0770)):
        assert abs(got - want) <= 0.25 * want
    for got, want in zip(sol_log.tau_opt, (0.1610, 0.1410)):
        assert abs(got - want) <= 0.25 * want
    gap_ee = abs(sol_ee.tau_opt[0] - sol_ee.tau_opt[1])
    gap_log = abs(sol_log.tau_opt[0] - sol_log.tau_opt[1])
    assert gap_log < gap_ee
    print(f"\n[PASS] criterion 8d: access gap {gap_log:.4f} (log) < {gap_ee:.4f} (sum), "
          f"both within 25% of reference pairs, rates met")


def test_c9_byte_identical_output(capsys):
    """Every command is deterministic: identical inputs, identical CSV."""
    commands = (
        ["solve", "--scenario", SOLVE_SCN],
        ["solve", "--scenario", FIXED_SCN],
        ["sweep", "--scenario", SOLVE_SCN, "--axis", "rate",
         "--from", "5e5", "--to", "1e6", "--steps", "3"],
        ["validate", "--scenario", FIXED_SCN, "--slots", "100000", "--seed", "42"],
    )
    for argv in commands:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, f"non-deterministic output for {argv[0]}"
        assert first.encode("utf-8") == second.encode("utf-8")
    print("\n[PASS] criterion 9: byte-identical CSV across repeated runs of "
          "solve, sweep and validate")


def test_c10_hard_links_vs_brute_force():
    """Four two-node networks with links out to 9.5 m: within 2% of the grid, which B' bounds."""
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(4):
        # Targets as in the benchmark pool: 0.2 to 0.8 times each node's rate
        # at tau = 0.5 / n.  Beyond about 8 m codewords fail, and the
        # certificate need not close there.
        rng = random.Random(f"hard/n=2/i={case}")
        ds = [rng.uniform(1.0, 9.5) for _ in range(2)]
        probe = build_network(ds, [0.0, 0.0])
        _, rates, _ = evaluate(probe, (0.25, 0.25), (2646, 2646))
        net = build_network(ds, [rng.uniform(0.2, 0.8) * r for r in rates])
        sol = eecap(net, SolverConfig(objective=VARIANT_EE))
        assert sol.feasible and sol.variant_used == VARIANT_EE, f"case {case}"
        reference = grid_search_ee(net)
        rel = abs(sol.objective_value - reference) / reference
        worst = max(worst, rel)
        assert rel <= 0.02, f"case {case}: solver {sol.objective_value} vs grid {reference}"
        assert sol.upper_bound >= reference, f"case {case}: bound {sol.upper_bound} below the grid"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 10: solver within 2% of dense grid search on 4 "
          f"networks with links to 9.5 m, under its bound (max rel gap {worst:.2e}, "
          f"{elapsed:.1f} s < 60 s)")
