"""Joint optimization of access probabilities and payload sizes.

Known-geometry cases pin the optimizer against closed-form expectations
(single-node saturation, symmetry) and against a brute-force grid scan of
the true constrained objective; random scenarios check the structural
invariants every returned solution must satisfy.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from eecap import (
    ChannelParams,
    PhyConfig,
    SolverConfig,
    VARIANT_EE,
    VARIANT_LOGEE,
    VARIANT_LOGTHR,
    build_network,
    eecap,
    evaluate,
    load_scenario,
)
from eecap import solver
from eecap.solver import (_lift, _lift_many, _objective_value, _repair_rates, _value,
                          feasibility_stage)
from oracles import (Node, aggregate_terms, frame_success_prob, nt_opt_for_throughput,
                     tau_min_for_rate)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def brute_force_ee(net, tau_step: float, nts_candidates) -> tuple[float, tuple[float, float]]:
    """Best total efficiency on a dense tau grid, honoring all constraints."""
    r_mins = [nm.r_min for nm in net.nodes]
    best, best_tau = -math.inf, None
    taus = np.arange(tau_step, 1.0, tau_step)
    for t1 in taus:
        for t2 in taus:
            if t1 + t2 > 1.0:
                continue
            total = 0.0
            ok = True
            for nts in nts_candidates:
                _, rates, etas = evaluate(net, (t1, t2), nts)
                if all(r >= rm * (1 - 1e-9) for r, rm in zip(rates, r_mins)):
                    total = max(total, math.fsum(etas))
                else:
                    ok = False
            if ok and total > best:
                best, best_tau = total, (float(t1), float(t2))
    return best, best_tau


class TestFeasibilityStage:
    def test_two_node_fixed_point_meets_rates(self, two_node_net):
        tau, nts, ok = feasibility_stage(two_node_net)
        assert ok
        _, rates, _ = evaluate(two_node_net, tau, nts)
        for r, nm in zip(rates, two_node_net.nodes):
            assert r >= nm.r_min * (1 - 1e-6)
        assert sum(tau) <= 1.0

    def test_impossible_rates_reported(self):
        net = build_network([1.0, 1.0], [1e9, 1e9])
        _, _, ok = feasibility_stage(net)
        assert not ok

    def test_fixed_point_payloads_maximize_throughput(self):
        # Each node's stage payload, where its payload climb ended, is the
        # throughput optimum of the tau-affine closed form at the fixed point,
        # ties to the smaller payload.  Links reach 10 m, where the optimum
        # leaves n_t_max; a third of the nodes have no target.
        rng = random.Random(7)
        grid = list(PhyConfig().nt_grid())
        checked, untargeted, payloads = 0, 0, set()
        for _ in range(80):
            n = rng.randrange(1, 9)
            d = [rng.uniform(1.0, 10.0) for _ in range(n)]
            r_min = [rng.choice([0.0, 1.0, 1.0]) * rng.uniform(0.05, 0.5) * 2e6 / n
                     for _ in range(n)]
            net = build_network(d, r_min)
            tau, nts, ok = feasibility_stage(net)
            for k, nm in enumerate(net.nodes if ok else ()):
                terms = aggregate_terms(tau, k, net.cost(k, nts[k]), nts[k], nm.t_sym)
                assert nts[k] == nt_opt_for_throughput(nm.seg.p_cw, terms, grid)
                checked += 1
                untargeted += nm.r_min == 0.0
                payloads.add(nts[k])
        assert checked > 200 and untargeted > 80 and len(payloads) > 5, (checked, untargeted, payloads)

    def test_zero_rates_trivially_feasible(self):
        net = build_network([1.0, 1.0], [0.0, 0.0])
        tau, nts, ok = feasibility_stage(net)
        assert ok
        assert all(t == 0.0 for t in tau)


class TestRateRepair:
    """Edge cases of the lift onto the rate targets (random cases: test_properties)."""

    @staticmethod
    def meets_exactly(net, rates, nodes):
        return all(abs(rates[k] / net.nodes[k].r_min - 1.0) <= 1e-12 for k in nodes)

    def test_single_node_matches_the_closed_form_minimum(self):
        net = build_network([2.0], [1e6])
        lifted, rates, _ = _repair_rates(net, [0.0], [2646])
        node = Node(index=0, d=2.0, tau=0.0, n_t=2646, r_min=1e6)
        want = tau_min_for_rate(node, [0.0], net.cost(0, 2646), net.nodes[0].seg, net.phy.n)
        assert lifted[0] == pytest.approx(want, rel=1e-12)
        assert self.meets_exactly(net, rates, [0])
        # Above the rate the node reaches at tau = 1, no lift exists.
        _, top, _ = evaluate(net, [1.0], [2646])
        assert _repair_rates(build_network([2.0], [1.01 * top[0]]), [0.0], [2646]) is None

    def test_nodes_without_a_target_keep_their_access(self):
        net = build_network([1.0, 3.0, 5.0], [0.0, 4e5, 0.0])
        start = [0.05, 0.0, 0.0]
        lifted, rates, _ = _repair_rates(net, start, [2646] * 3)
        assert lifted[0] == start[0] and lifted[2] == 0.0
        assert lifted[1] > 0.0 and self.meets_exactly(net, rates, [1])

    def test_a_link_that_delivers_nothing_cannot_meet_a_target(self):
        ch = ChannelParams(tx_eb_over_n0_at_d0=100.0)
        far = build_network([1.0, 10.0], [1e5, 1e3], channel=ch)
        assert frame_success_prob(far.nodes[1].seg, 2646) == 0.0
        assert _repair_rates(far, [0.1, 0.1], [2646, 2646]) is None
        # Without a target the dead link only takes its share of the slots.
        idle = build_network([1.0, 10.0], [1e5, 0.0], channel=ch)
        lifted, rates, etas = _repair_rates(idle, [0.0, 0.1], [2646, 2646])
        assert lifted[1] == 0.1 and rates[1] == etas[1] == 0.0
        assert self.meets_exactly(idle, rates, [0])

    def test_a_start_at_zero_lands_on_every_target(self, two_node_net):
        lifted, rates, _ = _repair_rates(two_node_net, [0.0, 0.0], [2646, 2646])
        assert self.meets_exactly(two_node_net, rates, [0, 1])
        # The least point: any feasible start below it lifts to the same point.
        again, _, _ = _repair_rates(two_node_net, [0.5 * t for t in lifted], [2646, 2646])
        assert again == pytest.approx(lifted, rel=1e-12)

    def test_subnormal_targets_are_rejected(self):
        # a_k t_idle = r_min t_idle / c_k rounds to zero for such a target, and
        # the solve took the fallback although both targets are reachable.
        with pytest.raises(ValueError, match="subnormal"):
            build_network([1.0, 2.0], [8.9e-319, 1e5])
        # A NaN target passed every comparison and failed the solve later.
        with pytest.raises(ValueError, match="r_min: entry 0"):
            build_network([1.0, 2.0], [math.nan, 1e5])
        sol = eecap(build_network([1.0, 2.0], [sys.float_info.min, 1e5]), SolverConfig())
        assert sol.variant_used == VARIANT_EE and sol.feasible
        # An infinite target is unreachable, so the solve falls back.
        sol = eecap(build_network([1.0, 2.0], [math.inf, 1e5]), SolverConfig())
        assert sol.variant_used == VARIANT_LOGTHR and not sol.feasible

    def test_the_lift_ends_at_the_feasibility_fold(self):
        # Eight nodes at 1 m whose total target sits at the fold, where the
        # least fixed point of the lift is critical: plain steps there gain
        # about 1e-13 of the access budget per step, and took tens of seconds.
        net = build_network([1.0] * 8, [2481673.51127322 / 8] * 8)
        nts = [2646] * 8
        odds = net.payloads.odds(nts)
        table = odds.tolist()

        def batched():
            out, _, ok = _lift_many(odds, np.zeros((1, 8)))
            return (list(out[0]),) if ok[0] else None

        verdicts = []
        for lift in (lambda: _lift(table, [0.0] * 8), batched, lambda: _repair_rates(net, [0.0] * 8, nts)):
            start = time.perf_counter()
            got = lift()   # None, or a tuple that starts with the lifted tau
            assert time.perf_counter() - start < 1.0
            verdicts.append(got is None)
            if got is not None:
                _, rates, _ = evaluate(net, got[0], nts)
                assert all(r >= nm.r_min * (1.0 - 1e-12) for r, nm in zip(rates, net.nodes))
        assert len(set(verdicts)) == 1


class TestCertificateExit:
    """EE solves that return the least rate-feasible point, certified by the bound B'."""

    @pytest.mark.parametrize("name", ["two_node_1m", "uniform_16", "uniform_32"])
    def test_exits_on_the_certificate(self, name, monkeypatch):
        if name == "two_node_1m":
            net = load_scenario(str(SCENARIOS / "two_node_1m.ini")).network()
        else:
            n = int(name.split("_")[1])
            net = build_network([1.0] * n, [1e6 / n] * n)

        def no_ascent(*args):
            raise AssertionError("the coordinate ascent ran")

        monkeypatch.setattr(solver, "_maximize_scalar", no_ascent)
        sol = eecap(net, SolverConfig(objective=VARIANT_EE))
        assert sol.variant_used == VARIANT_EE and sol.feasible and sol.converged
        assert sol.iterations == 1 and sol.trace == (sol.objective_value,)
        assert sol.objective_value * (1.0 - 1e-12) <= sol.upper_bound
        assert sol.upper_bound - sol.objective_value <= 1e-9 * sol.upper_bound
        for r, nm in zip(sol.rates, net.nodes):
            assert r >= nm.r_min * (1.0 - 1e-12)

    def test_only_ee_solves_carry_a_bound(self, two_node_net):
        assert eecap(two_node_net, SolverConfig(objective=VARIANT_LOGEE)).upper_bound is None
        fallback = eecap(build_network([1.0, 1.0], [1e9, 1e9]), SolverConfig(objective=VARIANT_EE))
        assert fallback.variant_used == VARIANT_LOGTHR and fallback.upper_bound is None

    def test_an_open_gap_runs_the_ascent(self):
        # A 9 m link: the bound stays about 10 % above the best point found,
        # so the solve runs the ascent, which moves that node's payload.
        net = build_network([5.6, 9.0], [2e5, 1.2e5])
        sol = eecap(net, SolverConfig(objective=VARIANT_EE))
        assert sol.variant_used == VARIANT_EE and sol.converged and sol.iterations > 1
        assert sol.upper_bound > sol.objective_value * 1.05

    def test_an_ascent_from_x_star_that_finds_no_gain_returns_x_star(self):
        # Hard network n = 16, #0 (links to 9.5 m, targets as in the
        # benchmark pool): the certificate does not close, and no move of
        # the ascent from x* raises the objective, so x* is the answer.
        rng = random.Random("hard/n=16/i=0")
        d = [rng.uniform(1.0, 9.5) for _ in range(16)]
        probe = build_network(d, [0.0] * 16)
        _, rates, _ = evaluate(probe, [0.5 / 16] * 16, [probe.phy.n_t_max] * 16)
        net = build_network(d, [rng.uniform(0.2, 0.8) * r for r in rates])
        _, stage_nts, ok = feasibility_stage(net)
        assert ok
        cand_tau, cand_nts = solver._least_point(net, stage_nts)
        cand_value = math.fsum(evaluate(net, cand_tau, cand_nts)[2])
        sol = eecap(net, SolverConfig(objective=VARIANT_EE))
        assert sol.variant_used == VARIANT_EE and sol.feasible and sol.converged
        assert sol.upper_bound > cand_value * (1.0 + 1e-3)
        assert sol.objective_value == cand_value
        assert sol.tau_opt == tuple(cand_tau) and sol.nt_opt == tuple(cand_nts)

    @pytest.mark.parametrize("objective", [VARIANT_EE, VARIANT_LOGEE])
    def test_no_least_point_falls_back_to_logthr(self, objective, two_node_net, monkeypatch):
        # The stage accepts this network; where x* does not exist, the
        # solve takes the fallback as if the stage had rejected it.
        assert feasibility_stage(two_node_net)[2]
        monkeypatch.setattr(solver, "_least_point", lambda net, nts: None)
        sol = eecap(two_node_net, SolverConfig(objective=objective))
        assert sol.variant_used == VARIANT_LOGTHR and sol.upper_bound is None
        assert sol == solver._logthr_fallback(two_node_net)


class TestSingleNode:
    def test_saturates_the_channel_for_throughput(self):
        # An unreachable rate target sends the solve to the LogTHR fallback.
        net = build_network([4.45], [1e9],
                            channel=ChannelParams(tx_eb_over_n0_at_d0=500.0))
        sol = eecap(net, SolverConfig())
        assert sol.variant_used == VARIANT_LOGTHR and sol.converged
        # Alone on the channel, throughput grows with tau: the optimum is
        # the upper boundary, and the payload matches its own closed form.
        assert sol.tau_opt == (1.0,)
        cost = net.cost(0, sol.nt_opt[0])
        # aggregate_terms is affine in tau_k and undefined at tau_k = 1, so
        # read the slot split where one slot in 1e12 is idle.
        terms = aggregate_terms([1.0 - 1e-12], 0, cost, sol.nt_opt[0], net.nodes[0].t_sym)
        want_nt = nt_opt_for_throughput(net.nodes[0].seg.p_cw, terms, list(net.phy.nt_grid()))
        assert sol.nt_opt[0] == want_nt


class TestTwoNodeStructure:
    def test_symmetric_nodes_get_symmetric_access(self):
        net = build_network([2.0, 2.0], [2e5, 2e5])
        for variant_cfg in (SolverConfig(objective=VARIANT_EE),
                            SolverConfig(objective=VARIANT_LOGEE)):
            sol = eecap(net, variant_cfg)
            assert sol.feasible
            assert abs(sol.tau_opt[0] - sol.tau_opt[1]) <= 1e-3
            assert sol.nt_opt[0] == sol.nt_opt[1]

    def test_beats_brute_force_grid(self, two_node_net):
        sol = eecap(two_node_net, SolverConfig(objective=VARIANT_EE))
        assert sol.feasible
        # On this network every link is clean, so the payload optimum is the
        # largest frame and the scan only needs that single payload choice.
        best, best_tau = brute_force_ee(two_node_net, 5e-3, [(2646, 2646)])
        assert sol.objective_value >= best * (1 - 1e-2)

    def test_higher_demand_needs_more_access(self):
        taus = []
        for scale in (1.0, 1.5, 2.0):
            net = build_network([1.0, 1.0], [scale * 5e5, scale * 2.5e5])
            sol = eecap(net, SolverConfig(objective=VARIANT_EE))
            assert sol.feasible
            taus.append(sol.tau_opt[0])
        assert taus[0] < taus[1] < taus[2]


class TestVariantSelection:
    def test_unconstrained_uses_configured_objective(self):
        net = build_network([1.0, 1.0], [0.0, 0.0])
        sol = eecap(net, SolverConfig(objective=VARIANT_LOGEE))
        assert sol.variant_used == VARIANT_LOGEE
        assert sol.feasible

    def test_infeasible_rates_fall_back_to_throughput_fairness(self):
        net = build_network([1.0, 1.0], [1e9, 1e9])
        sol = eecap(net, SolverConfig(objective=VARIANT_EE))
        assert sol.variant_used == VARIANT_LOGTHR
        assert not sol.feasible
        # Proportional fairness between identical nodes equalizes access.
        assert abs(sol.tau_opt[0] - sol.tau_opt[1]) <= 1e-12


class TestFallbackClosedForm:
    """Two identical nodes whose LogTHR optimum lies inside the access budget.

    Along the symmetric line, sum log r = 2 log x - 2 log(2 t_s x + t_c x^2
    + t_idle) is stationary at x = sqrt(t_idle / t_c); by symmetry and
    concavity in the log-odds that is the optimum, interior when x < 1.
    """

    @pytest.mark.parametrize("name,axis,value,want", [
        # The last points of the shipped rate and distance sweeps.
        ("two_node_1m.ini", "rate", 2.2e6, 0.472145053149),
        ("distance_sweep.ini", "distance", 10.0, 0.445098274545),
    ])
    def test_access_matches_the_closed_form(self, name, axis, value, want):
        scn = load_scenario(str(SCENARIOS / name))
        if axis == "rate":
            point = scn.with_nodes(scn.distances, tuple(r * value / scn.r_mins[0] for r in scn.r_mins))
        else:
            point = scn.with_nodes((value, value), scn.r_mins)
        net = point.network()
        sol = eecap(net, point.solver)
        assert sol.variant_used == VARIANT_LOGTHR and sol.converged
        assert sol.nt_opt[0] == sol.nt_opt[1]
        cost = net.cost(0, sol.nt_opt[0])
        x = math.sqrt(cost.t_idle / cost.t_collision)
        assert x < 1.0
        for t in sol.tau_opt:
            assert abs(t - x / (1.0 + x)) <= 1e-12
            assert abs(t - want) <= 1e-12


class TestPrimalMoves:
    """Moves the coordinate ascent needs beyond one node's access search."""

    def test_fallback_splits_the_budget_between_identical_nodes(self):
        # The optimum lies on the access-budget face sum tau = 1.
        scn = load_scenario(str(SCENARIOS / "nodes_sweep.ini"))
        for n in range(2, 11):
            point = scn.with_nodes((scn.distances[0],) * n, (scn.r_mins[0],) * n)
            sol = eecap(point.network(), point.solver)
            assert sol.variant_used == VARIANT_LOGTHR
            assert all(abs(t - 1.0 / n) <= 1e-12 for t in sol.tau_opt)

    def test_switches_payload_under_a_binding_rate_target(self):
        # At 9 m the 1386-bit frame beats the 2646-bit one, but meets the
        # rate target only with more access than the start point has.
        scn = load_scenario(str(SCENARIOS / "distance_sweep.ini"))
        point = scn.with_nodes((9.0, 9.0), scn.r_mins)
        sol = eecap(point.network(), point.solver)
        assert sol.variant_used == VARIANT_EE and sol.feasible
        assert sol.nt_opt == (1386, 1386)
        assert sol.objective_value >= 343.5e6 * (1 - 1e-4)

    def test_converges_without_losing_the_start_objective(self):
        rng = random.Random(20)
        for i in range(8):
            n = rng.randrange(2, 9)
            ds = [rng.uniform(1.0, 6.0) for _ in range(n)]
            probe = build_network(ds, [0.0] * n)
            _, rates, _ = evaluate(probe, [0.5 / n] * n, [probe.phy.n_t_max] * n)
            net = build_network(ds, [rng.uniform(0.05, 0.4) * r for r in rates])
            cfg = SolverConfig(objective=(VARIANT_EE, VARIANT_LOGEE)[i % 2])
            tau0, nts0, ok = feasibility_stage(net)
            assert ok
            _, start_rates, start_etas = _repair_rates(net, tau0, nts0)
            least_tau, least_nts = solver._least_point(net, nts0)
            sol = eecap(net, cfg)
            assert sol.variant_used == cfg.objective
            assert sol.converged and sol.feasible
            assert sol.objective_value >= _objective_value(cfg.objective, start_rates, start_etas)
            assert sol.objective_value >= _value(net, cfg.objective, least_tau, least_nts)


def rule_network(rule: str, n: int, index: int):
    """A benchmark-rule network: the pool ("pool", links to 6 m) or the hard set (to 9.5 m).

    Targets are 0.2 to 0.8 times each node's rate when every node sends
    with probability 0.5 / n at the largest payload, as
    perfbench/make_reference.py draws them.
    """
    key, far = ((f"solve_ladder/n={n}/index={index}", 6.0) if rule == "pool"
                else (f"hard/n={n}/i={index}", 9.5))
    rng = random.Random(key)
    d = [rng.uniform(1.0, far) for _ in range(n)]
    probe = build_network(d, [0.0] * n)
    _, rates, _ = evaluate(probe, [0.5 / n] * n, [probe.phy.n_t_max] * n)
    return build_network(d, [rng.uniform(0.2, 0.8) * r for r in rates])


class TestOnTargetSkip:
    """The ascent skips the search of a node on its target that loses on its first step up."""

    @staticmethod
    def counted_solve(net, objective, monkeypatch) -> tuple:
        """The solve and the number of 1-D searches it ran."""
        calls = []
        search = solver._maximize_scalar

        def counted(*args):
            calls.append(None)
            return search(*args)

        with monkeypatch.context() as m:
            m.setattr(solver, "_maximize_scalar", counted)
            return eecap(net, SolverConfig(objective=objective)), len(calls)

    @pytest.mark.parametrize("rule, n, index, objective", [
        ("uniform", 16, 0, VARIANT_LOGEE),
        ("pool", 8, 2, VARIANT_LOGEE),    # 22 rounds, two payload switches
        ("pool", 4, 2, VARIANT_LOGEE),
        ("pool", 2, 0, VARIANT_LOGEE),
        ("hard", 8, 5, VARIANT_EE),       # uncertified, 5 rounds
    ])
    def test_skipping_changes_no_output(self, rule, n, index, objective, monkeypatch):
        # Both solves run here, in one process: a stored Solution could
        # differ in its last bits on another Python, whose sum() rounds
        # differently.  repr round-trips every float, so equal reprs are
        # bitwise equal Solutions.
        net = (build_network([1.0] * n, [1e6 / n] * n) if rule == "uniform"
               else rule_network(rule, n, index))
        skipped, fewer = self.counted_solve(net, objective, monkeypatch)
        monkeypatch.setattr(solver, "_holds_on_target", lambda *args: False)
        searched, more = self.counted_solve(net, objective, monkeypatch)
        assert skipped.variant_used == objective and skipped.converged
        assert fewer < more
        assert repr(skipped) == repr(searched)

    def test_a_uniform_network_runs_no_search(self, monkeypatch):
        # Sixteen nodes at 1 m, each at 1e6 / 16 b/s: x* puts every node on
        # its target, and each loses on its first step up.
        net = build_network([1.0] * 16, [1e6 / 16] * 16)
        sol, searches = self.counted_solve(net, VARIANT_LOGEE, monkeypatch)
        assert sol.variant_used == VARIANT_LOGEE and sol.converged
        assert searches == 0

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_uniform_logee_solves_converge(self, n):
        net = build_network([1.0] * n, [1e6 / n] * n)
        _, stage_nts, ok = feasibility_stage(net)
        assert ok
        least = solver._least_point(net, stage_nts)
        sol = eecap(net, SolverConfig(objective=VARIANT_LOGEE))
        assert sol.variant_used == VARIANT_LOGEE and sol.converged and sol.feasible
        assert sol.objective_value >= _value(net, VARIANT_LOGEE, *least)


class TestSolutionInvariants:
    def test_random_scenarios(self):
        rng = random.Random(97)
        grid = None
        for _ in range(8):
            n = rng.randrange(1, 5)
            ds = [rng.uniform(0.5, 8.0) for _ in range(n)]
            rs = [rng.choice((0.0, 1e4, 5e4)) for _ in range(n)]
            net = build_network(ds, rs,
                                channel=ChannelParams(tx_eb_over_n0_at_d0=2000.0))
            grid = set(net.phy.nt_grid())
            cfg = SolverConfig(objective=rng.choice((VARIANT_EE, VARIANT_LOGEE)))
            sol = eecap(net, cfg)
            assert sol.variant_used in (VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR)
            assert len(sol.tau_opt) == n and len(sol.nt_opt) == n
            assert all(0.0 <= t <= 1.0 for t in sol.tau_opt)
            assert math.fsum(sol.tau_opt) <= 1.0 + 1e-9
            assert all(nt in grid for nt in sol.nt_opt)
            assert sol.iterations == len(sol.trace) >= 1
            # Reported metrics must be reproducible from the model.
            _, rates, etas = evaluate(net, sol.tau_opt, sol.nt_opt)
            for a, b in zip(rates, sol.rates):
                assert a == pytest.approx(b, rel=1e-9)
            for a, b in zip(etas, sol.efficiencies):
                assert a == pytest.approx(b, rel=1e-9)
            if sol.feasible and sol.variant_used != VARIANT_LOGTHR:
                for r, nm in zip(sol.rates, net.nodes):
                    assert r >= nm.r_min * (1 - 2e-4)

    def test_no_numpy_warning_escapes_a_solve(self):
        # The array scorers meet log(0), overflow and 0/0 on probes they
        # drop; every such warning stays inside its np.errstate.
        nets = [load_scenario(str(path)).network() for path in sorted(SCENARIOS.glob("*.ini"))]
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randrange(1, 9)
            ds = [rng.uniform(1.0, 9.5) for _ in range(n)]
            _, rates, _ = evaluate(build_network(ds, [0.0] * n), [0.5 / n] * n, [2646] * n)
            nets.append(build_network(ds, [rng.choice((0.0, rng.uniform(0.05, 1.5))) * r for r in rates]))
        variants = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, net in enumerate(nets):
                sol = eecap(net, SolverConfig(objective=(VARIANT_EE, VARIANT_LOGEE)[i % 2]))
                variants.add(sol.variant_used)
        assert variants == {VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(objective="THR")

    def test_objective_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["objective"]
        assert SolverConfig.max_outer_iters == SolverConfig().max_outer_iters == 200
