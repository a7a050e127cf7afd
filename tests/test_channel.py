"""Distance-dependent link budget: path loss law and burst-length table."""

from __future__ import annotations

import math

import pytest

from eecap import ChannelParams, NcpbTable, PhyConfig, build_network
from eecap.channel import link_budget

PHY = PhyConfig()

# Frozen 50-digit references for the channel coefficient of the default
# log-distance law (40 dB at 1 m, exponent 3.3).
FROZEN_H = (
    (1.0, 1.0e-4),
    (2.0, 1.0153154954452944e-5),
    (4.0, 1.0308655552913236e-6),
)


class TestPathLoss:
    def test_frozen_channel_coefficients(self):
        ch = ChannelParams()
        tbl = NcpbTable()
        for d, want in FROZEN_H:
            lb = link_budget(d, ch, tbl, PHY)
            assert lb.h == pytest.approx(want, rel=1e-13)

    def test_exponent_two_quarters_at_double_distance(self):
        ch = ChannelParams(exponent=2.0)
        tbl = NcpbTable()
        h1 = link_budget(1.0, ch, tbl, PHY).h
        h2 = link_budget(2.0, ch, tbl, PHY).h
        assert h2 == pytest.approx(h1 / 4.0, rel=1e-15)
        assert h1 == pytest.approx(1e-4, rel=1e-15)

    def test_zero_exponent_makes_snr_distance_free(self):
        ch = ChannelParams(exponent=0.0)
        tbl = NcpbTable()
        snrs = []
        for d in (1.0, 1.5, 2.0):  # same burst band, so no table jumps
            lb = link_budget(d, ch, tbl, PHY)
            snrs.append(lb.h * lb.eb_over_n0)
        assert snrs[0] == pytest.approx(snrs[1], rel=1e-15)
        assert snrs[0] == pytest.approx(snrs[2], rel=1e-15)

    def test_received_snr_at_reference_distance(self):
        # At d0 the product h * eb_over_n0 must equal the configured budget.
        ch = ChannelParams()
        tbl = NcpbTable()
        lb = link_budget(1.0, ch, tbl, PHY)
        assert lb.h * lb.eb_over_n0 == pytest.approx(5530.0, rel=1e-12)

    def test_snr_decreasing_within_burst_band(self):
        ch = ChannelParams()
        tbl = NcpbTable()
        last_snr = None
        last_ncpb = None
        for d in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
            lb = link_budget(d, ch, tbl, PHY)
            snr = lb.h * lb.eb_over_n0
            if last_ncpb == lb.n_cpb:
                assert snr < last_snr
            last_snr, last_ncpb = snr, lb.n_cpb

    def test_longer_bursts_scale_energy_and_integration(self):
        ch = ChannelParams()
        tbl = NcpbTable()
        lb = link_budget(7.0, ch, tbl, PHY)
        assert lb.n_cpb == 8
        assert lb.t_int == pytest.approx(8 * PHY.t_p, rel=1e-15)
        base = link_budget(1.0, ch, tbl, PHY)
        assert lb.eb_over_n0 == pytest.approx(8 * base.eb_over_n0, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChannelParams(d0=0.0)
        with pytest.raises(ValueError):
            ChannelParams(exponent=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(tx_eb_over_n0_at_d0=-5.0)

    @pytest.mark.parametrize("name", ["pl0_db", "d0", "exponent", "tx_eb_over_n0_at_d0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelParams(**{name: value})

    def test_path_gain_must_be_a_normal_float(self):
        # link_budget divides by 10 ** (-pl0_db / 10): it underflows to zero
        # above about 3,240 dB, is subnormal from about 3,080 dB, and
        # overflows below about -3,080 dB.
        for pl0_db in (3300.0, 3100.0, -4000.0, -3090.0):
            with pytest.raises(ValueError, match="pl0_db"):
                ChannelParams(pl0_db=pl0_db)
        for pl0_db in (3000.0, -3000.0, 0.0):
            lb = link_budget(1.0, ChannelParams(pl0_db=pl0_db), NcpbTable(), PHY)
            assert 0.0 < lb.h < math.inf and 0.0 < lb.eb_over_n0 < math.inf

    @pytest.mark.parametrize("channel", [ChannelParams(tx_eb_over_n0_at_d0=1e308),
                                         ChannelParams(pl0_db=3070.0)],
                             ids=["tx_eb_over_n0_at_d0", "pl0_db"])
    def test_burst_snr_overflow_names_the_channel(self, channel):
        # Both give a normal path gain, but the burst SNR over it overflows,
        # which would make the bit error probability NaN.
        with pytest.raises(ValueError, match=r"tx_eb_over_n0_at_d0 = .* pl0_db = .* overflows"):
            link_budget(1.0, channel, NcpbTable(), PHY)
        with pytest.raises(ValueError, match="eb_over_n0"):
            build_network([1.0, 2.0], [1e5, 1e5], channel=channel)


class TestBurstTable:
    def test_default_staircase(self):
        tbl = NcpbTable()
        want = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 4, 7: 8, 8: 8, 9: 16, 10: 32}
        for d, n_cpb in want.items():
            assert tbl.lookup(float(d)) == n_cpb

    def test_lookup_edges(self):
        tbl = NcpbTable()
        assert tbl.lookup(2.0) == 1
        assert tbl.lookup(2.0000001) == 2

    def test_out_of_range_raises(self):
        tbl = NcpbTable()
        with pytest.raises(ValueError):
            tbl.lookup(10.5)
        with pytest.raises(ValueError):
            tbl.lookup(0.0)
        with pytest.raises(ValueError):
            tbl.lookup(-1.0)

    def test_rejects_malformed_tables(self):
        with pytest.raises(ValueError):
            NcpbTable(entries=())
        with pytest.raises(ValueError):
            NcpbTable(entries=((2.0, 1), (2.0, 2)))
        with pytest.raises(ValueError):
            NcpbTable(entries=((2.0, 3),))
        with pytest.raises(ValueError):
            NcpbTable(entries=((2.0, 4), (4.0, 2)))


class TestNodeDistances:
    # Unchecked, a negative distance would reach the timing as a negative
    # propagation delay, and NaN would pass every comparison up to the
    # burst table.
    @pytest.mark.parametrize("d", (-1.0, math.nan), ids=("negative", "nan"))
    def test_build_network_names_the_bad_entry(self, d):
        with pytest.raises(ValueError, match=rf"^d: entry 1 must be positive, got {d}$"):
            build_network([1.0, d], [0.0, 0.0])
