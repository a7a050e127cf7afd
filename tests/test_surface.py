"""The package's public surface: the entry points, and nothing else.

The scalar PHY formulas and the cost records stay importable from their
own modules.  The formulas no solve runs (per-node throughput and
efficiency, their closed forms, linear_coeffs, the scalar slot-cost model
and the PSDU, PPDU and codeword helpers) are not shipped: they live in
tests/oracles.py, and the tests use them as reference oracles.
"""

from __future__ import annotations

import importlib
import types
from dataclasses import fields

import pytest

import eecap
import oracles
from eecap import ChannelParams, PhyConfig, channel, metrics
from eecap.costs import CostModel
from eecap.phy import LinkBudget

PUBLIC = (
    # solve
    "eecap", "SolverConfig", "Solution", "VARIANT_EE", "VARIANT_LOGEE", "VARIANT_LOGTHR",
    # model
    "build_network", "NetworkModel", "evaluate",
    # configs
    "PhyConfig", "ChannelParams", "NcpbTable", "TimingParams", "EnergyParams",
    # scenarios
    "load_scenario", "Scenario", "ScenarioError",
    # Monte Carlo
    "simulate", "SimConfig", "SimReport", "rate_estimate", "efficiency_estimate",
)

MODULE_ONLY = {
    "access": ("StateProbs", "state_probs"),
    "channel": ("link_budget",),
    "costs": ("ACK_PAYLOAD_BITS", "CostModel"),
    "network": ("NodeModel",),
    "phy": ("LinkBudget", "SegmentProbs", "bit_error_prob", "codeword_success_prob",
            "kasami_success_prob", "phr_success_prob", "segment_probs", "shr_success_prob"),
    "solver": ("feasibility_stage",),
}

# The test oracles that left the package, by the module that defined them.
MOVED_TO_ORACLES = {
    "access": ("LinearCoeffs", "linear_coeffs"),
    "costs": ("ack_duration", "cost_model", "ppdu_duration"),
    "metrics": ("AggregateTerms", "Node", "aggregate_terms", "energy_efficiency",
                "frame_success_prob", "nt_opt_for_throughput", "tau_min_for_rate",
                "throughput", "throughput_derivative_tau"),
    "phy": ("codewords_for_payload", "ppdu_success_prob", "psdu_success_prob"),
}


class TestPublicSurface:
    def test_all_lists_exactly_the_entry_points(self):
        assert len(PUBLIC) == 22 and sum(len(names) for names in MODULE_ONLY.values()) == 15
        assert sum(len(names) for names in MOVED_TO_ORACLES.values()) == 17
        assert sorted(eecap.__all__) == sorted(PUBLIC)

    def test_every_public_attribute_is_listed(self):
        public = {name for name, obj in vars(eecap).items()
                  if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
        assert public == set(eecap.__all__)

    def test_star_import_binds_exactly_the_entry_points(self):
        namespace: dict = {}
        exec("from eecap import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(PUBLIC)

    @pytest.mark.parametrize("module, name", [(module, name)
                                              for module, names in MODULE_ONLY.items()
                                              for name in names])
    def test_left_out_names_import_from_their_module(self, module, name):
        namespace: dict = {}
        exec(f"from eecap.{module} import {name}", namespace)
        assert name in namespace
        assert not hasattr(eecap, name)

    @pytest.mark.parametrize("module, name", [(module, name)
                                              for module, names in MOVED_TO_ORACLES.items()
                                              for name in names])
    def test_moved_to_the_oracles(self, module, name):
        assert not hasattr(importlib.import_module(f"eecap.{module}"), name)
        assert not hasattr(eecap, name)
        assert getattr(oracles, name).__module__ == "oracles"

    def test_config_records_hold_only_what_the_model_reads(self):
        # No answer depends on a channel's absolute path loss, on the BCH
        # payload length k or on an idle energy, which must be 0: none is a field.
        assert [f.name for f in fields(ChannelParams)] == ["d0", "exponent", "tx_eb_over_n0_at_d0"]
        assert [f.name for f in fields(PhyConfig)] == [
            "n", "t", "n_phr", "t_phr", "kasami_len", "rho", "preamble_reps", "t_sym", "t_p",
            "w_rx", "n_t_min", "n_t_max"]
        assert [f.name for f in fields(LinkBudget)] == ["snr", "n_cpb", "t_int"]
        assert [f.name for f in fields(CostModel)] == ["t_success", "t_collision", "t_idle",
                                                       "e_success", "e_collision"]
        assert not hasattr(channel, "ChannelOverflowError")

    def test_metrics_holds_only_the_stage_payload_rule(self):
        # The benchmark's span tracer imports eecap.metrics by name, so the
        # module stays; the feasibility stage's payload rule is all it defines.
        defined = [name for name, obj in vars(metrics).items()
                   if getattr(obj, "__module__", None) == metrics.__name__]
        assert defined == ["_nt_opt"]
