"""Slotted access state probabilities and their affine decomposition.

state_probs is the ground truth; linear_coeffs must reproduce it exactly as
an affine function of any single node's access probability, including at
degenerate points where some probabilities are 0 or 1.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from eecap.access import _leave_one_out, state_probs
from oracles import linear_coeffs


def random_tau(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.0, 0.6) for _ in range(n)]


class TestStateProbs:
    def test_three_symmetric_nodes_exact(self):
        sp = state_probs((0.3, 0.3, 0.3))
        assert sp.per_node_success == pytest.approx((0.147, 0.147, 0.147), abs=1e-15)
        assert sp.p_success == pytest.approx(0.441, abs=1e-15)
        assert sp.p_idle == pytest.approx(0.343, abs=1e-15)
        assert sp.p_collision == pytest.approx(0.216, abs=1e-15)

    def test_two_even_transmitters(self):
        sp = state_probs((0.5, 0.5))
        assert sp.per_node_success == pytest.approx((0.25, 0.25), abs=1e-15)
        assert sp.p_success == pytest.approx(0.5, abs=1e-15)
        assert sp.p_idle == pytest.approx(0.25, abs=1e-15)
        assert sp.p_collision == pytest.approx(0.25, abs=1e-15)

    def test_lone_certain_transmitter(self):
        sp = state_probs((1.0, 0.0))
        assert sp.per_node_success == (1.0, 0.0)
        assert sp.p_success == 1.0
        assert sp.p_collision == 0.0
        assert sp.p_idle == 0.0

    def test_single_node_never_collides(self):
        sp = state_probs((0.4,))
        assert sp.p_success == pytest.approx(0.4, abs=1e-15)
        assert sp.p_collision == 0.0
        assert sp.p_idle == pytest.approx(0.6, abs=1e-15)

    def test_normalization_random(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(1, 11)
            tau = random_tau(rng, n)
            sp = state_probs(tau)
            assert sp.p_success + sp.p_collision + sp.p_idle == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(sp.per_node_success) == pytest.approx(sp.p_success, abs=1e-12)
            assert all(0.0 <= p <= 1.0 for p in sp.per_node_success)

    def test_certain_transmitters(self):
        sp = state_probs((1.0, 0.5))
        assert sp.per_node_success == pytest.approx((0.5, 0.0), abs=1e-15)
        assert sp.p_idle == 0.0
        assert sp.p_collision == pytest.approx(0.5, abs=1e-15)
        both = state_probs((1.0, 1.0))
        assert both.p_collision == 1.0
        assert both.p_success == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            state_probs(())
        with pytest.raises(ValueError):
            state_probs((0.5, 1.2))
        with pytest.raises(ValueError):
            state_probs((-0.1,))


class TestLinearCoeffs:
    def test_affine_reconstruction_random(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 9)
            tau = random_tau(rng, n)
            sp = state_probs(tau)
            for k in range(n):
                lc = linear_coeffs(tau, k)
                t = tau[k]
                assert lc.x_s * t + lc.y_s == pytest.approx(sp.p_success, abs=1e-12)
                assert lc.x_c * t + lc.y_c == pytest.approx(sp.p_collision, abs=1e-12)
                assert lc.x_i * t + lc.y_i == pytest.approx(sp.p_idle, abs=1e-12)

    def test_coefficients_with_silent_neighbor(self):
        # With the only other node silent, the active node's transmissions
        # convert idle slots into successes one for one and nothing collides.
        lc = linear_coeffs((0.37, 0.0), 0)
        assert lc.x_s == pytest.approx(1.0, abs=1e-15)
        assert lc.x_c == 0.0
        assert lc.x_i == pytest.approx(-1.0, abs=1e-15)
        assert lc.y_s == 0.0
        assert lc.y_c == 0.0
        assert lc.y_i == pytest.approx(1.0, abs=1e-15)

    def test_idle_slope_is_minus_silence_product(self):
        tau = (0.2, 0.4, 0.1)
        for k in range(3):
            lc = linear_coeffs(tau, k)
            others = math.prod(1.0 - t for j, t in enumerate(tau) if j != k)
            assert lc.y_i == pytest.approx(others, rel=1e-14)
            assert lc.x_i == pytest.approx(-others, rel=1e-14)

    def test_reconstruction_with_certain_transmitter(self):
        # A neighbor at tau = 1 zeroes the leave-one-out product; the
        # coefficients must still reproduce the state probabilities.  For
        # the saturated node itself the decomposition in its own tau is
        # rejected explicitly.
        tau = (0.3, 1.0, 0.2)
        sp = state_probs(tau)
        for k in (0, 2):
            lc = linear_coeffs(tau, k)
            t = tau[k]
            assert lc.x_s * t + lc.y_s == pytest.approx(sp.p_success, abs=1e-12)
            assert lc.x_c * t + lc.y_c == pytest.approx(sp.p_collision, abs=1e-12)
            assert lc.x_i * t + lc.y_i == pytest.approx(sp.p_idle, abs=1e-12)
        with pytest.raises(ValueError):
            linear_coeffs(tau, 1)

    def test_leave_one_out_matches_direct_product(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randrange(2, 8)
            tau = random_tau(rng, n)
            # Sprinkle in degenerate and near-degenerate entries.
            if rng.random() < 0.5:
                tau[rng.randrange(n)] = rng.choice([0.0, 1.0, 1.0 - 1e-12])
            got = _leave_one_out(tau)
            for k in range(n):
                want = math.prod(1.0 - t for j, t in enumerate(tau) if j != k)
                assert got[k] == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_index(self):
        with pytest.raises(IndexError):
            linear_coeffs((0.5, 0.5), 2)
        with pytest.raises(IndexError):
            linear_coeffs((0.5, 0.5), -1)


class TestAgainstCounting:
    def test_monte_carlo_agreement(self):
        # Empirical slot-state frequencies from direct Bernoulli draws must
        # land within three standard errors of the analytic probabilities.
        rng = np.random.default_rng(123)
        tau = np.array([0.35, 0.1, 0.5])
        m = 200_000
        tx = rng.random((m, 3)) < tau[None, :]
        ntx = tx.sum(axis=1)
        sp = state_probs(tuple(tau))
        for want, got in ((sp.p_idle, (ntx == 0).mean()),
                          (sp.p_success, (ntx == 1).mean()),
                          (sp.p_collision, (ntx >= 2).mean())):
            se = math.sqrt(want * (1 - want) / m)
            assert abs(got - want) <= 3 * se
        per_node = (tx & (ntx == 1)[:, None]).mean(axis=0)
        for k in range(3):
            want = sp.per_node_success[k]
            se = math.sqrt(want * (1 - want) / m)
            assert abs(per_node[k] - want) <= 3 * se
