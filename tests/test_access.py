"""Slotted access state probabilities, the slot-state kernel, and the affine decomposition.

state_probs is the ground truth; linear_coeffs must reproduce it exactly as
an affine function of any single node's access probability, including at
degenerate points where some probabilities are 0 or 1.  The slot-state
kernel (_tau_states, _odds_states) must agree with exact rational
arithmetic to 1e-14 relative, where every access probability is small too.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from eecap.access import _odds_states, _tau_states, state_probs
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
            got = _tau_states(tau)[3]
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


def exact_tau_states(tau):
    """(P^I, P^S, P^C) in Fractions: no, exactly one, and two or more transmitters."""
    t = [Fraction(x) for x in tau]
    idle = math.prod((1 - x for x in t), start=Fraction(1))
    one = sum((x * math.prod((1 - y for j, y in enumerate(t) if j != k), start=Fraction(1))
               for k, x in enumerate(t)), start=Fraction(0))
    return idle, one, 1 - idle - one


def exact_odds_states(x):
    """(u, v, q, each) in Fractions, from the products themselves."""
    f = [Fraction(a) for a in x]
    p = math.prod((1 + a for a in f), start=Fraction(1))
    each = [math.prod((1 + a for j, a in enumerate(f) if j != k), start=Fraction(1)) - 1
            for k in range(len(f))]
    return sum(f, start=Fraction(0)), p - 1 - sum(f, start=Fraction(0)), p - 1, each


def rel_err(got: float, want: Fraction) -> float:
    return 0.0 if got == want else abs(Fraction(got) - want) / abs(want)


# Four nodes around 1e-3, 1e-4, 1e-5 and 1e-6, where 1 - P^S - P^I and
# prod(1 + x) - 1 - u lose 7e-12 to 3e-6 of their value.
SMALL = [[scale * f for f in (1.0, 1.7, 2.9, 0.6)] for scale in (1e-3, 1e-4, 1e-5, 1e-6)]
KERNEL_REL = 1e-14


@pytest.mark.parametrize("tau", SMALL, ids=("1e-3", "1e-4", "1e-5", "1e-6"))
def test_collision_probability_is_exact_at_small_tau(tau):
    want = exact_tau_states(tau)[2]
    assert rel_err(state_probs(tau).p_collision, want) <= KERNEL_REL
    for got, exact in zip(_tau_states(tau)[:3], exact_tau_states(tau)):
        assert rel_err(got, exact) <= KERNEL_REL


def check_odds_kernel(x):
    """_odds_states on floats (with each) and on a one-column array, against Fractions."""
    u, v, q, each = exact_odds_states(x)
    got = _odds_states(list(x), others=True)
    column = _odds_states(np.array(x, dtype=float)[:, None])
    for found in (got, [a if a is None else a[0] for a in column]):
        assert rel_err(found[0], u) <= KERNEL_REL
        assert rel_err(found[1], v) <= KERNEL_REL
        assert rel_err(found[2], q) <= KERNEL_REL
    for g, w in zip(got[3], each):
        assert rel_err(g, w) <= KERNEL_REL


@pytest.mark.parametrize("tau", SMALL, ids=("1e-3", "1e-4", "1e-5", "1e-6"))
def test_odds_aggregates_are_exact_at_small_odds(tau):
    check_odds_kernel([t / (1.0 - t) for t in tau])


KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
# Access probabilities from 1e-9 to 1 (tau = 1 included) and odds from 1e-9 to 1e6.
SMALL_TO_ONE = st.one_of(st.just(1.0), st.floats(1e-9, 1.0),
                         st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e))


@KERNEL_SETTINGS
@given(st.lists(SMALL_TO_ONE, min_size=1, max_size=8))
def test_tau_kernel_matches_exact_arithmetic(tau):
    for got, exact in zip(_tau_states(tau)[:3], exact_tau_states(tau)):
        assert rel_err(got, exact) <= KERNEL_REL
    assert rel_err(state_probs(tau).p_collision, exact_tau_states(tau)[2]) <= KERNEL_REL


@KERNEL_SETTINGS
@given(st.lists(st.one_of(st.just(0.0), st.floats(-9.0, 6.0).map(lambda e: 10.0 ** e)),
                min_size=1, max_size=8))
def test_odds_kernel_matches_exact_arithmetic(x):
    check_odds_kernel(x)


def left_to_right(values) -> float:
    total = 0.0
    for a in values:
        total += a
    return total


def test_the_kernel_sums_left_to_right():
    """u and P^S add node by node, on floats and on every column of an array.

    Here a compensated sum (Python 3.12's sum(), math.fsum) and numpy's
    pairwise sum of a lone column both keep the small terms that a plain
    left-to-right sum rounds away, so any of them would show.
    """
    x = [1.0] + [1e-16] * 10
    assert math.fsum(x) != left_to_right(x)
    assert _odds_states(x)[0] == left_to_right(x)
    for columns in (np.array(x)[:, None], np.array([x, x[::-1]]).T):
        assert _odds_states(columns)[0][0] == left_to_right(x)
    tau = [0.5] + [1e-16] * 10
    per_node = state_probs(tau).per_node_success
    assert math.fsum(per_node) != left_to_right(per_node)
    assert state_probs(tau).p_success == left_to_right(per_node)
