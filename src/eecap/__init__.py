"""Energy-efficiency optimization of channel access for IR-UWB body-area networks.

Analytical PHY/MAC models for slotted random access over IEEE 802.15.6
impulse-radio ultra-wideband links, closed-form per-node optima, a joint
solver for access probabilities and payload sizes, and a Monte Carlo
validator, all driven by INI scenario files through a CSV-emitting CLI.

The package exports the entry points: build a network (build_network and
its parameter configs), solve it (eecap, SolverConfig, Solution and the
variant names), evaluate or simulate one operating point, and load a
scenario.  The scalar PHY, cost and metric formulas the model is built
from, which the tests use as reference oracles, import from their own
modules, such as eecap.phy, eecap.costs and eecap.metrics.
"""

# The pure-Python layers load first; numpy's first import is network's.
from . import access, channel, costs, metrics  # noqa: F401
from .channel import ChannelParams, NcpbTable
from .costs import EnergyParams, TimingParams
from .network import NetworkModel, build_network, evaluate
from .phy import PhyConfig
from .scenario import Scenario, ScenarioError, load_scenario
from .simulate import SimConfig, SimReport, efficiency_estimate, rate_estimate, simulate
from .solver import VARIANT_EE, VARIANT_LOGEE, VARIANT_LOGTHR, Solution, SolverConfig, eecap

__version__ = "0.1.0"

__all__ = [
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
]
