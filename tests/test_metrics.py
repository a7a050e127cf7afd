"""Per-node throughput and energy efficiency, plus their closed-form optima.

The closed forms are validated against what they claim to optimize: the
rate-threshold access probability is plugged back into the throughput
function, the derivative against central finite differences, and the
payload-size optimum against an exhaustive scan of the admissible grid
using the genuine throughput function.  The formulas are the oracles of
tests/oracles.py; the payload optimum runs the shipped closed form,
eecap.metrics._nt_opt.
"""

from __future__ import annotations

import math
import random

import pytest

from eecap import EnergyParams, PhyConfig, TimingParams
from eecap.access import state_probs
from eecap.costs import CostModel
from eecap.phy import SegmentProbs
from oracles import (
    AggregateTerms,
    Node,
    aggregate_terms,
    cost_model,
    energy_efficiency,
    frame_success_prob,
    nt_opt_for_throughput,
    tau_min_for_rate,
    throughput,
    throughput_derivative_tau,
)

PHY = PhyConfig()
GRID = list(PHY.nt_grid())
PERFECT = SegmentProbs(p_shr=1.0, p_phr=1.0, p_cw=1.0)

SIMPLE_COST = CostModel(t_success=2e-3, t_collision=1e-3, t_idle=0.5e-3,
                        e_success=4e-6, e_collision=1e-6)


def random_setup(rng: random.Random):
    """A random cost model, segment probabilities and access vector.

    Also returns the node's symbol period and propagation delay, which its
    cost model was built from.
    """
    n = rng.randrange(1, 6)
    tau = [rng.uniform(0.02, 0.5) for _ in range(n)]
    k = rng.randrange(n)
    n_t = rng.choice(GRID)
    t_sym = PHY.t_sym * rng.choice((1, 2, 4, 8))
    sigma = [rng.uniform(1e-9, 3e-8) for _ in range(n)][k]
    cost = cost_model(n_t, t_sym, sigma, TimingParams(), EnergyParams())
    seg = SegmentProbs(p_shr=rng.uniform(0.6, 1.0), p_phr=rng.uniform(0.6, 1.0),
                       p_cw=rng.uniform(0.9, 1.0))
    node = Node(index=k, d=1.0, tau=tau[k], n_t=n_t, r_min=0.0)
    return node, tau, cost, seg, t_sym, sigma


class TestFrameSuccess:
    def test_segment_product_with_codeword_power(self):
        seg = SegmentProbs(p_shr=0.9, p_phr=0.8, p_cw=0.5)
        assert frame_success_prob(seg, 189) == pytest.approx(0.9 * 0.8 * 0.125, rel=1e-15)

    def test_known_codeword_counts(self):
        seg = SegmentProbs(p_shr=1.0, p_phr=1.0, p_cw=0.99)
        assert frame_success_prob(seg, 126) == pytest.approx(0.9801, rel=1e-12)
        assert frame_success_prob(seg, 2646) == pytest.approx(0.99 ** 42, rel=1e-12)

    def test_rejects_off_grid(self):
        with pytest.raises(ValueError):
            frame_success_prob(PERFECT, 100)
        with pytest.raises(ValueError):
            frame_success_prob(PERFECT, 0)

    def test_takes_any_positive_multiple_of_n(self):
        # The oracle evaluates the paper's formula one codeword below the
        # admissible grid; evaluate and simulate reject that payload.
        seg = SegmentProbs(p_shr=0.9, p_phr=0.8, p_cw=0.5)
        assert frame_success_prob(seg, 63) == 0.9 * 0.8 * 0.5


class TestMetricValues:
    def test_single_node_hand_computed(self):
        sp = state_probs((0.5,))
        node = Node(index=0, d=1.0, tau=0.5, n_t=126, r_min=0.0)
        # R = N * 0.5 / (0.5 * Ts + 0.5 * Ti), eta = N * 0.5 / (0.5 * Es)
        want_rate = 126 * 0.5 / (0.5 * 2e-3 + 0.5 * 0.5e-3)
        want_eta = 126 * 0.5 / (0.5 * 4e-6)
        assert throughput(node, sp, SIMPLE_COST, PERFECT) == pytest.approx(want_rate, rel=1e-15)
        assert energy_efficiency(node, sp, SIMPLE_COST, PERFECT) == pytest.approx(want_eta, rel=1e-15)

    def test_two_node_hand_computed(self):
        sp = state_probs((0.5, 0.5))
        node = Node(index=0, d=1.0, tau=0.5, n_t=252, r_min=0.0)
        seg = SegmentProbs(p_shr=1.0, p_phr=1.0, p_cw=0.5)
        num = 252 * 0.25 * 0.5 ** 4  # P_0^S = 0.25, four codewords at p_cw = 0.5
        t_den = 0.5 * 2e-3 + 0.25 * 1e-3 + 0.25 * 0.5e-3
        e_den = 0.5 * 4e-6 + 0.25 * 1e-6
        assert throughput(node, sp, SIMPLE_COST, seg) == pytest.approx(num / t_den, rel=1e-15)
        assert energy_efficiency(node, sp, SIMPLE_COST, seg) == pytest.approx(num / e_den, rel=1e-15)

    def test_energy_scale_property(self):
        # Scaling every energy coefficient by c divides efficiency by c and
        # leaves throughput untouched.
        rng = random.Random(41)
        for _ in range(50):
            node, tau, cost, seg, _, _ = random_setup(rng)
            sp = state_probs(tau)
            c = rng.uniform(0.1, 10.0)
            scaled = CostModel(t_success=cost.t_success, t_collision=cost.t_collision,
                               t_idle=cost.t_idle, e_success=c * cost.e_success,
                               e_collision=c * cost.e_collision)
            assert energy_efficiency(node, sp, scaled, seg) == pytest.approx(
                energy_efficiency(node, sp, cost, seg) / c, rel=1e-12)
            assert throughput(node, sp, scaled, seg) == pytest.approx(
                throughput(node, sp, cost, seg), rel=1e-15)

    def test_efficiency_needs_activity(self):
        sp = state_probs((0.0, 0.0))
        node = Node(index=0, d=1.0, tau=0.0, n_t=126, r_min=0.0)
        with pytest.raises(ValueError):
            energy_efficiency(node, sp, SIMPLE_COST, PERFECT)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            Node(index=-1, d=1.0, tau=0.5, n_t=126, r_min=0.0)
        with pytest.raises(ValueError):
            Node(index=0, d=0.0, tau=0.5, n_t=126, r_min=0.0)
        with pytest.raises(ValueError):
            Node(index=0, d=1.0, tau=1.5, n_t=126, r_min=0.0)
        with pytest.raises(ValueError):
            Node(index=0, d=1.0, tau=0.5, n_t=0, r_min=0.0)


class TestAggregateTerms:
    def test_both_decompositions_give_the_duration(self):
        rng = random.Random(5)
        for _ in range(200):
            node, tau, cost, seg, t_sym, _ = random_setup(rng)
            sp = state_probs(tau)
            terms = aggregate_terms(tau, node.index, cost, node.n_t, t_sym)
            duration = (sp.p_success * cost.t_success
                        + sp.p_collision * cost.t_collision
                        + sp.p_idle * cost.t_idle)
            assert terms.xt * tau[node.index] + terms.yt == pytest.approx(duration, rel=1e-12)
            assert terms.to + terms.tn * node.n_t == pytest.approx(duration, rel=1e-12)
            assert terms.yt >= 0.0
            assert terms.to > 0.0
            assert terms.tn >= 0.0


class TestThroughputDerivative:
    def test_matches_finite_differences(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(200):
            node, tau, cost, seg, _, _ = random_setup(rng)
            k = node.index
            if not 1e-4 < tau[k] < 1.0 - 1e-4:
                continue
            got = throughput_derivative_tau(node, tau, cost, seg)
            assert got >= 0.0
            h = 1e-6
            hi, lo = list(tau), list(tau)
            hi[k] += h
            lo[k] -= h
            r_hi = throughput(Node(k, node.d, hi[k], node.n_t, 0.0),
                              state_probs(hi), cost, seg)
            r_lo = throughput(Node(k, node.d, lo[k], node.n_t, 0.0),
                              state_probs(lo), cost, seg)
            fd = (r_hi - r_lo) / (2 * h)
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-7)
            checked += 1
        assert checked >= 150


class TestRateThreshold:
    def test_plugged_back_meets_rate_exactly(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(300):
            node, tau, cost, seg, _, _ = random_setup(rng)
            k = node.index
            # Ask for a rate below the tau -> 1 supremum so a threshold exists.
            cap_tau = list(tau)
            cap_tau[k] = 1.0 - 1e-9
            cap = throughput(Node(k, node.d, cap_tau[k], node.n_t, 0.0),
                             state_probs(cap_tau), cost, seg)
            r_target = rng.uniform(0.05, 0.95) * cap
            probe = Node(k, node.d, tau[k], node.n_t, r_target)
            t_min = tau_min_for_rate(probe, tau, cost, seg)
            if t_min is None:
                continue
            back = list(tau)
            back[k] = t_min
            got = throughput(Node(k, node.d, t_min, node.n_t, r_target),
                             state_probs(back), cost, seg)
            assert got == pytest.approx(r_target, rel=1e-9)
            checked += 1
        assert checked >= 250

    def test_zero_rate_needs_no_access(self):
        node = Node(index=0, d=1.0, tau=0.3, n_t=126, r_min=0.0)
        assert tau_min_for_rate(node, (0.3, 0.2), SIMPLE_COST, PERFECT) == 0.0

    def test_unreachable_rate_returns_none(self):
        node = Node(index=0, d=1.0, tau=0.3, n_t=126, r_min=1e12)
        assert tau_min_for_rate(node, (0.3, 0.2), SIMPLE_COST, PERFECT) is None

    def test_threshold_grows_with_the_target(self):
        tau = (0.2, 0.2)
        prev = 0.0
        for r in (1e4, 2e4, 4e4, 6e4):
            node = Node(index=0, d=1.0, tau=0.2, n_t=630, r_min=r)
            t = tau_min_for_rate(node, tau, SIMPLE_COST, PERFECT)
            assert t is not None and t > prev
            prev = t


class TestPayloadOptimum:
    def test_matches_exhaustive_scan_of_true_throughput(self):
        rng = random.Random(31)
        for _ in range(200):
            node, tau, cost, seg, t_sym, sigma = random_setup(rng)
            k = node.index
            terms = aggregate_terms(tau, k, cost, node.n_t, t_sym)
            got = nt_opt_for_throughput(seg.p_cw, terms, GRID)

            def rate_at(n_t: int) -> float:
                c = cost_model(n_t, t_sym, sigma, TimingParams(), EnergyParams())
                return throughput(Node(k, node.d, tau[k], n_t, 0.0),
                                  state_probs(tau), c, seg)

            best = max(GRID, key=rate_at)
            assert rate_at(got) == pytest.approx(rate_at(best), rel=1e-12)

    def test_perfect_code_wants_largest_frame(self):
        terms = AggregateTerms(xt=1e-3, yt=1e-4, to=5e-4, tn=1e-7)
        assert nt_opt_for_throughput(1.0, terms, GRID) == 2646

    def test_hopeless_code_returns_smallest_frame(self):
        terms = AggregateTerms(xt=1e-3, yt=1e-4, to=5e-4, tn=1e-7)
        assert nt_opt_for_throughput(0.0, terms, GRID) == 126

    def test_zero_duration_slope(self):
        # tn = 0 makes the duration payload-independent; the optimum is the
        # grid point nearest 1/b where the bit-gain peaks.
        terms = AggregateTerms(xt=1e-3, yt=1e-4, to=5e-4, tn=0.0)
        for p_cw in (0.9, 0.99, 0.999):
            got = nt_opt_for_throughput(p_cw, terms, GRID)
            gain = {n: n * p_cw ** (n // 63) for n in GRID}
            assert gain[got] == max(gain.values())

    def test_rejects_bad_input(self):
        terms = AggregateTerms(xt=1e-3, yt=1e-4, to=5e-4, tn=1e-7)
        with pytest.raises(ValueError):
            nt_opt_for_throughput(1.5, terms, GRID)
        with pytest.raises(ValueError):
            nt_opt_for_throughput(0.5, terms, [])
