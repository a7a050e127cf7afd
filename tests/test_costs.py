"""Per-state slot durations and energies: the scalar cost oracle and the records it builds."""

from __future__ import annotations

from dataclasses import fields

import pytest

from eecap import EnergyParams, PhyConfig, TimingParams
from eecap.costs import ACK_PAYLOAD_BITS, SPEED_OF_LIGHT, CostModel
from oracles import ack_duration, cost_model, ppdu_duration

T_SYM = PhyConfig().t_sym


class TestDurations:
    def test_header_only_frame(self):
        tp = TimingParams()
        assert ppdu_duration(0, T_SYM, tp) == pytest.approx(120.372e-6, rel=1e-12)

    def test_payload_extends_by_symbol_period(self):
        tp = TimingParams()
        assert ppdu_duration(126, 1e-6, tp) == pytest.approx(246.372e-6, rel=1e-12)
        base = ppdu_duration(0, 1e-6, tp)
        assert ppdu_duration(630, 1e-6, tp) == pytest.approx(base + 630e-6, rel=1e-12)

    def test_ack_is_minimum_size_frame(self):
        tp = TimingParams()
        assert ack_duration(3.2e-8, tp) == ppdu_duration(ACK_PAYLOAD_BITS, 3.2e-8, tp)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            ppdu_duration(-1, T_SYM, TimingParams())


class TestCostModel:
    def test_success_collision_gap(self):
        # A success additionally carries the ACK, one more guard and one
        # more propagation trip.
        tp = TimingParams()
        sigma = 2.0 / SPEED_OF_LIGHT
        cm = cost_model(1134, T_SYM, sigma, tp, EnergyParams())
        want_gap = ack_duration(T_SYM, tp) + tp.t_psifs + sigma
        assert cm.t_success - cm.t_collision == pytest.approx(want_gap, rel=1e-12)
        assert cm.t_collision == pytest.approx(
            ppdu_duration(1134, T_SYM, tp) + tp.t_psifs + sigma, rel=1e-12)
        assert cm.t_idle == tp.t_idle_slot

    def test_energy_values(self):
        cm = cost_model(1134, T_SYM, 0.0, TimingParams(), EnergyParams())
        assert cm.e_success == pytest.approx(2.0e-9 * 1134 + 6.0e-7, rel=1e-12)
        assert cm.e_collision == pytest.approx(1.0e-9 * 1134 + 3.0e-7, rel=1e-12)
        assert cm.e_collision < cm.e_success

    def test_largest_frame_success_energy(self):
        ep = EnergyParams(eps_b=1e-9, eps_oh=1e-7, eps_st=5e-8,
                          eps_b_tx=0.0, eps_oh_tx=0.0, eps_st_tx=0.0)
        cm = cost_model(2646, T_SYM, 0.0, TimingParams(), ep)
        assert cm.e_success == pytest.approx(2.796e-6, rel=1e-12)

    def test_zero_energy_coefficients_cost_nothing(self):
        ep = EnergyParams(eps_b=0.0, eps_oh=0.0, eps_st=0.0,
                          eps_b_tx=0.0, eps_oh_tx=0.0, eps_st_tx=0.0)
        cm = cost_model(630, T_SYM, 0.0, TimingParams(), ep)
        assert cm.e_success == 0.0
        assert cm.e_collision == 0.0

    def test_per_node_propagation_delay(self):
        tp, ep = TimingParams(), EnergyParams()
        near = cost_model(126, T_SYM, 1.0 / SPEED_OF_LIGHT, tp, ep)
        far = cost_model(126, T_SYM, 9.0 / SPEED_OF_LIGHT, tp, ep)
        gap = far.t_collision - near.t_collision
        assert gap == pytest.approx(8.0 / SPEED_OF_LIGHT, rel=1e-9)

    def test_rejects_invalid_states(self):
        with pytest.raises(ValueError):
            CostModel(t_success=1e-3, t_collision=2e-3, t_idle=1e-4,
                      e_success=1e-6, e_collision=1e-7)
        with pytest.raises(ValueError):
            CostModel(t_success=2e-3, t_collision=1e-3, t_idle=0.0,
                      e_success=1e-6, e_collision=1e-7)
        with pytest.raises(ValueError):
            CostModel(t_success=2e-3, t_collision=1e-3, t_idle=1e-4,
                      e_success=-1e-6, e_collision=1e-7)


class TestParamValidation:
    def test_timing_holds_only_the_shared_times(self):
        # A node's symbol period and propagation delay follow from its
        # distance; the scenario file's [timing] keys are exactly these.
        assert [f.name for f in fields(TimingParams)] == ["t_shr", "t_phr", "t_psifs",
                                                          "t_idle_slot"]

    def test_timing_rejects_nonpositive(self):
        for name in ("t_shr", "t_phr", "t_psifs", "t_idle_slot"):
            with pytest.raises(ValueError):
                TimingParams(**{name: 0.0})
        with pytest.raises(ValueError):
            TimingParams(t_idle_slot=-1.0)

    def test_energy_rejects_inconsistent_tx_share(self):
        with pytest.raises(ValueError):
            EnergyParams(eps_b=-1e-9)
        with pytest.raises(ValueError):
            EnergyParams(eps_b_tx=3e-9)  # above the default total eps_b
        with pytest.raises(ValueError):
            EnergyParams(eps_st_tx=3e-7)
