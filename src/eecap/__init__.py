"""Energy-efficiency optimization of channel access for IR-UWB body-area networks.

Analytical PHY/MAC models for slotted random access over IEEE 802.15.6
impulse-radio ultra-wideband links, closed-form per-node optima, a joint
solver for access probabilities and payload sizes, and a Monte Carlo
validator, all driven by INI scenario files through a CSV-emitting CLI.
"""

from .access import LinearCoeffs, StateProbs, linear_coeffs, state_probs
from .channel import ChannelParams, NcpbTable, link_budget
from .costs import (ACK_PAYLOAD_BITS, CostModel, EnergyParams, TimingParams,
                    ack_duration, cost_model, ppdu_duration)
from .metrics import (AggregateTerms, Node, aggregate_terms, energy_efficiency,
                      frame_success_prob, nt_opt_for_throughput, tau_min_for_rate,
                      throughput, throughput_derivative_tau)
from .network import NetworkModel, NodeModel, build_network, evaluate
from .phy import (LinkBudget, PhyConfig, SegmentProbs, bit_error_prob,
                  codeword_success_prob, codewords_for_payload, kasami_success_prob,
                  phr_success_prob, ppdu_success_prob, psdu_success_prob,
                  segment_probs, shr_success_prob)
from .scenario import Scenario, ScenarioError, load_scenario
from .simulate import SimConfig, SimReport, efficiency_estimate, rate_estimate, simulate
from .solver import (VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR, Solution,
                     SolverConfig, eecap, feasibility_stage)

__version__ = "0.1.0"

__all__ = [
    "ACK_PAYLOAD_BITS", "AggregateTerms", "ChannelParams", "CostModel",
    "EnergyParams", "LinearCoeffs", "LinkBudget", "NcpbTable", "NetworkModel",
    "Node", "NodeModel", "PhyConfig", "Scenario", "ScenarioError", "SegmentProbs",
    "SimConfig", "SimReport", "Solution", "SolverConfig", "StateProbs",
    "TimingParams", "VARIANT_EE", "VARIANT_LOGEE", "VARIANT_LOGTHR",
    "ack_duration", "aggregate_terms", "bit_error_prob",
    "build_network", "codeword_success_prob", "codewords_for_payload",
    "cost_model", "eecap", "efficiency_estimate", "energy_efficiency",
    "evaluate", "feasibility_stage", "frame_success_prob", "kasami_success_prob",
    "linear_coeffs", "link_budget", "load_scenario", "nt_opt_for_throughput",
    "phr_success_prob", "ppdu_duration", "ppdu_success_prob", "psdu_success_prob",
    "rate_estimate", "segment_probs", "shr_success_prob", "simulate",
    "state_probs", "tau_min_for_rate",
    "throughput", "throughput_derivative_tau",
]
