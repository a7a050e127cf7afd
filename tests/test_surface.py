"""The package's public surface: the entry points, and nothing else.

The scalar PHY, cost and metric formulas stay importable from their own
modules, where the tests use them as reference oracles.
"""

from __future__ import annotations

import types

import pytest

import eecap

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
    "access": ("LinearCoeffs", "StateProbs", "linear_coeffs", "state_probs"),
    "channel": ("link_budget",),
    "costs": ("ACK_PAYLOAD_BITS", "CostModel", "ack_duration", "cost_model", "ppdu_duration"),
    "metrics": ("AggregateTerms", "Node", "aggregate_terms", "energy_efficiency",
                "frame_success_prob", "nt_opt_for_throughput", "tau_min_for_rate",
                "throughput", "throughput_derivative_tau"),
    "network": ("NodeModel",),
    "phy": ("LinkBudget", "SegmentProbs", "bit_error_prob", "codeword_success_prob",
            "codewords_for_payload", "kasami_success_prob", "phr_success_prob",
            "ppdu_success_prob", "psdu_success_prob", "segment_probs", "shr_success_prob"),
    "solver": ("feasibility_stage",),
}


class TestPublicSurface:
    def test_all_lists_exactly_the_entry_points(self):
        assert len(PUBLIC) == 22 and sum(len(names) for names in MODULE_ONLY.values()) == 32
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
