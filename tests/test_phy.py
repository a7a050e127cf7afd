"""PHY error chain: bit errors, segment decode probabilities, frame assembly.

The binomial error-correction tails are checked against exact rational
arithmetic, and the receiver bit error probability against 50-digit
reference values frozen from an independent high-precision evaluation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from eecap import ChannelParams, NcpbTable, PhyConfig
from eecap.channel import link_budget
from eecap.phy import (
    LinkBudget,
    _binomial_tail,
    bit_error_prob,
    codeword_success_prob,
    kasami_success_prob,
    phr_success_prob,
    segment_probs,
    shr_success_prob,
)
from oracles import codewords_for_payload, ppdu_success_prob, psdu_success_prob

PHY = PhyConfig()


def exact_tail(n: int, t: int, p: Fraction) -> Fraction:
    """P(at most t errors in n bits), evaluated in exact rational arithmetic."""
    return sum(Fraction(math.comb(n, i)) * p**i * (1 - p) ** (n - i) for i in range(t + 1))


# Frozen exact-rational reference values for the three code tails in use:
# (n, t, p, numerator, denominator).
FROZEN_TAILS = (
    (63, 6, 0.5, 75611761, 2**63),
    (40, 2, 0.5, 821, 2**40),
    (63, 2, 0.5, 2017, 2**63),
)

# Frozen 50-digit references for the receiver bit error probability on the
# default channel with tx_eb_over_n0_at_d0 = 500 (see distances below).
FROZEN_PB = (
    (1.00, 1.6679611355058277e-56),
    (3.00, 3.3328607167235117e-4),
    (4.45, 3.1667982066283203e-2),
    (7.00, 2.9191021877741142e-1),
)


class TestBinomialTail:
    def test_frozen_exact_fractions(self):
        for n, t, p, num, den in FROZEN_TAILS:
            want = num / den
            got = _binomial_tail(n, t, p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_random_cases_match_exact_arithmetic(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randrange(4, 80)
            t = rng.randrange(0, min(n, 9))
            p = Fraction(rng.randrange(1, 64), 64)
            want = float(exact_tail(n, t, p))
            got = _binomial_tail(n, t, float(p))
            assert got == pytest.approx(want, rel=1e-12)

    def test_edge_cases(self):
        assert _binomial_tail(63, 6, 0.0) == 1.0
        assert _binomial_tail(63, 6, 1.0) == 0.0
        assert _binomial_tail(10, 10, 0.7) == 1.0
        assert _binomial_tail(10, 42, 0.7) == 1.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            _binomial_tail(63, 6, -0.1)
        with pytest.raises(ValueError):
            _binomial_tail(63, 6, 1.5)

    def test_monotone_decreasing_in_p(self):
        vals = [_binomial_tail(63, 6, p / 50) for p in range(1, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBitErrorProb:
    def test_frozen_reference_values(self):
        ch = ChannelParams(tx_eb_over_n0_at_d0=500.0)
        tbl = NcpbTable()
        for d, want in FROZEN_PB:
            lb = link_budget(d, ch, tbl, PHY)
            got = bit_error_prob(lb, PHY)
            assert got == pytest.approx(want, rel=1e-12)

    def test_against_high_precision_arithmetic(self):
        # Recompute the Gaussian tail at 50 significant digits from the
        # link budget alone; the frozen values above came from this route.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        ch = ChannelParams(tx_eb_over_n0_at_d0=500.0)
        tbl = NcpbTable()
        for d, _ in FROZEN_PB:
            lb = link_budget(d, ch, tbl, PHY)
            snr = mp.mpf(lb.h) * mp.mpf(lb.eb_over_n0)
            noise = snr + mp.mpf(lb.n_cpb) * mp.mpf(lb.t_int) * mp.mpf(PHY.w_rx)
            want = mp.mpf("0.5") * mp.erfc(mp.sqrt(snr * snr / 2 / noise) / mp.sqrt(2))
            got = bit_error_prob(lb, PHY)
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_zero_snr_is_coin_flip(self):
        lb = LinkBudget(h=0.0, eb_over_n0=1000.0, n_cpb=1, t_int=2.003e-9)
        assert bit_error_prob(lb, PHY) == 0.5

    def test_moderate_snr_with_long_burst(self):
        # snr = 100 with a noise bandwidth-time product of 32 puts the
        # Gaussian tail argument at sqrt(0.5 * 100^2 / 132) = 6.1546...
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        t_int = 32.0 / (16 * PHY.w_rx)
        lb = LinkBudget(h=1.0, eb_over_n0=100.0, n_cpb=16, t_int=t_int)
        got = bit_error_prob(lb, PHY)
        want = mp.mpf("0.5") * mp.erfc(mp.sqrt(mp.mpf(5000) / 132) / mp.sqrt(2))
        assert got == pytest.approx(float(want), rel=1e-12)
        assert got == pytest.approx(3.766e-10, rel=1e-3)

    def test_huge_snr_vanishes(self):
        lb = LinkBudget(h=1.0, eb_over_n0=1e6, n_cpb=1, t_int=2.003e-9)
        assert bit_error_prob(lb, PHY) < 1e-12

    def test_monotone_decreasing_in_snr(self):
        pbs = []
        for eb in (1e4, 1e5, 1e6, 1e7):
            lb = LinkBudget(h=1e-4, eb_over_n0=eb, n_cpb=1, t_int=2.003e-9)
            pbs.append(bit_error_prob(lb, PHY))
        assert all(a > b for a, b in zip(pbs, pbs[1:]))


class TestSegments:
    def test_shr_formula(self):
        p_b = 0.02
        p_k = kasami_success_prob(p_b, PHY)
        want = (1.0 - (1.0 - p_k) ** 4) * p_k
        assert shr_success_prob(p_b, PHY) == pytest.approx(want, rel=1e-15)

    def test_perfect_channel_segments_are_one(self):
        seg = segment_probs(0.0, PHY)
        assert seg.p_shr == 1.0
        assert seg.p_phr == 1.0
        assert seg.p_cw == 1.0

    def test_segments_decrease_with_bit_errors(self):
        for fn in (kasami_success_prob, shr_success_prob,
                   phr_success_prob, codeword_success_prob):
            vals = [fn(p / 20, PHY) for p in range(0, 10)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert vals[0] > vals[-1]

    def test_psdu_is_codeword_power(self):
        p_b = 0.03
        p_cw = codeword_success_prob(p_b, PHY)
        for n_t in (63, 126, 630, 2646):
            assert psdu_success_prob(p_b, n_t, PHY) == pytest.approx(
                p_cw ** (n_t // 63), rel=1e-12)


    def test_psdu_rejects_off_grid_sizes(self):
        for bad in (0, -63, 64, 125):
            with pytest.raises(ValueError):
                psdu_success_prob(0.01, bad, PHY)

    def test_ppdu_is_segment_product(self):
        p_b = 0.025
        want = (shr_success_prob(p_b, PHY) * phr_success_prob(p_b, PHY)
                * psdu_success_prob(p_b, 882, PHY))
        assert ppdu_success_prob(p_b, 882, PHY) == pytest.approx(want, rel=1e-15)


class TestPayloadLayout:
    def test_codeword_counts(self):
        # 72 header/FCS bits plus 8 bits per body octet, 51 payload bits per codeword
        assert codewords_for_payload(0, PHY) == (2, 126)
        assert codewords_for_payload(51, PHY) == (10, 630)
        assert codewords_for_payload(255, PHY) == (42, 2646)

    def test_rejects_out_of_range_bodies(self):
        with pytest.raises(ValueError):
            codewords_for_payload(-1, PHY)
        with pytest.raises(ValueError):
            codewords_for_payload(256, PHY)

    def test_padded_size_always_on_grid(self):
        for body in range(0, 256, 17):
            n_cw, n_t = codewords_for_payload(body, PHY)
            assert n_t == n_cw * PHY.n
            assert 8 * body + 72 <= n_cw * PHY.k


class TestConfigValidation:
    def test_grid_covers_expected_sizes(self):
        grid = list(PHY.nt_grid())
        assert grid[0] == 126
        assert grid[-1] == 2646
        assert len(grid) == 41
        assert all(v % 63 == 0 for v in grid)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PhyConfig(k=63)
        with pytest.raises(ValueError):
            PhyConfig(t=-1)
        with pytest.raises(ValueError):
            PhyConfig(preamble_reps=0)
        with pytest.raises(ValueError):
            PhyConfig(t_sym=0.0)
        with pytest.raises(ValueError):
            PhyConfig(n_t_min=100)
        with pytest.raises(ValueError):
            PhyConfig(n_t_min=2646, n_t_max=126)
