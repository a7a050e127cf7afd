"""Distance-dependent link budget: path loss law and burst-length table."""

from __future__ import annotations

import math

import pytest

from eecap import ChannelParams, NcpbTable, PhyConfig, build_network
from eecap.channel import link_budget
from eecap.phy import bit_error_prob

PHY = PhyConfig()

# Frozen 50-digit references for the path gain (d0 / d)^exponent of the
# default log-distance law (exponent 3.3 from 1 m).
FROZEN_GAIN = (
    (1.0, 1.0),
    (2.0, 1.0153154954452944e-1),
    (4.0, 1.0308655552913236e-2),
)


class TestPathLoss:
    def test_frozen_channel_coefficients(self):
        ch = ChannelParams()
        tbl = NcpbTable()
        for d, want in FROZEN_GAIN:
            lb = link_budget(d, ch, tbl, PHY)
            assert lb.snr == pytest.approx(5530.0 * want * lb.n_cpb, rel=1e-13)

    def test_exponent_two_quarters_at_double_distance(self):
        ch = ChannelParams(exponent=2.0)
        tbl = NcpbTable()
        snr1 = link_budget(1.0, ch, tbl, PHY).snr
        snr2 = link_budget(2.0, ch, tbl, PHY).snr
        assert snr2 == pytest.approx(snr1 / 4.0, rel=1e-15)
        assert snr1 == 5530.0

    def test_zero_exponent_makes_snr_distance_free(self):
        ch = ChannelParams(exponent=0.0)
        tbl = NcpbTable()
        snrs = [link_budget(d, ch, tbl, PHY).snr for d in (1.0, 1.5, 2.0)]  # one burst band
        assert snrs[0] == pytest.approx(snrs[1], rel=1e-15)
        assert snrs[0] == pytest.approx(snrs[2], rel=1e-15)

    def test_received_snr_at_reference_distance(self):
        # At d0 the burst SNR is the configured budget.
        lb = link_budget(1.0, ChannelParams(), NcpbTable(), PHY)
        assert lb.snr == 5530.0

    def test_snr_decreasing_within_burst_band(self):
        ch = ChannelParams()
        tbl = NcpbTable()
        last_snr = None
        last_ncpb = None
        for d in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
            lb = link_budget(d, ch, tbl, PHY)
            if last_ncpb == lb.n_cpb:
                assert lb.snr < last_snr
            last_snr, last_ncpb = lb.snr, lb.n_cpb

    def test_longer_bursts_scale_energy_and_integration(self):
        ch = ChannelParams()
        tbl = NcpbTable()
        lb = link_budget(7.0, ch, tbl, PHY)
        assert lb.n_cpb == 8
        assert lb.t_int == pytest.approx(8 * PHY.t_p, rel=1e-15)
        assert lb.snr == pytest.approx(8 * 5530.0 / 7.0 ** 3.3, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChannelParams(d0=0.0)
        with pytest.raises(ValueError):
            ChannelParams(exponent=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(tx_eb_over_n0_at_d0=-5.0)

    @pytest.mark.parametrize("name", ["d0", "exponent", "tx_eb_over_n0_at_d0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelParams(**{name: value})

    @pytest.mark.parametrize("d, channel", [(1e-200, ChannelParams()),
                                            (1e-3, ChannelParams(exponent=300.0))],
                             ids=["short-link", "steep-exponent"])
    def test_burst_snr_overflow_is_a_perfect_link(self, d, channel):
        # (d0 / d) ** exponent overflows the floats: float ** raises
        # OverflowError there, and the burst SNR is infinite.
        lb = link_budget(d, channel, NcpbTable(), PHY)
        assert lb.snr == math.inf and bit_error_prob(lb, PHY) == 0.0
        net = build_network([d, 1.0], [0.0, 0.0], channel=channel)
        assert net.payloads.f[0].tolist() == [1.0] * len(net.payloads.nt)

    def test_silent_transmitter_is_a_coin_flip_at_any_distance(self):
        # 0 * inf would be NaN: without transmit energy the SNR is 0 even
        # where the path gain overflows.
        lb = link_budget(1e-200, ChannelParams(tx_eb_over_n0_at_d0=0.0), NcpbTable(), PHY)
        assert lb.snr == 0.0 and bit_error_prob(lb, PHY) == 0.5


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
