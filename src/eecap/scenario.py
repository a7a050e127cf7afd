"""Scenario files: INI-style configuration for networks, solver and nodes.

A scenario bundles the PHY, channel, timing, energy and solver parameter
sections with the node list (distances and rate targets, plus optional
fixed access probabilities and payload sizes for evaluation-only runs).
Every parse or validation error names the offending section and key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .channel import ChannelParams, NcpbTable
from .costs import EnergyParams, TimingParams
from .network import NetworkModel, _check_payloads, build_network
from .phy import PhyConfig
from .solver import VARIANT_EE, VARIANT_LOGEE, SolverConfig


class ScenarioError(ValueError):
    """Configuration error with the offending section and key in the message."""


_OBJECTIVE_NAMES = {"ee": VARIANT_EE, "logee": VARIANT_LOGEE}

_INT = (int, "integer")      # int() rejects floats masquerading as ints ("2.5")
_NUMBER = (float, "number")
# Each parameter section's keys with their (converter, kind), in parse order.
_PHY_KEYS = {**dict.fromkeys(("n", "t", "n_phr", "t_phr", "kasami_len", "rho",
                              "preamble_reps", "n_t_min", "n_t_max"), _INT),
             **dict.fromkeys(("t_sym", "t_p", "w_rx"), _NUMBER)}
_CHANNEL_KEYS = dict.fromkeys(("d0", "exponent", "tx_eb_over_n0_at_d0"), _NUMBER)
_TIMING_KEYS = dict.fromkeys(("t_shr", "t_phr", "t_psifs", "t_idle_slot"), _NUMBER)
_ENERGY_KEYS = dict.fromkeys(("eps_b", "eps_oh", "eps_st", "eps_b_tx", "eps_oh_tx", "eps_st_tx"),
                             _NUMBER)
_NODE_KEYS = ("d", "r_min", "tau", "n_t")
_SECTIONS = ("phy", "channel", "ncpb", "timing", "energy", "solver", "nodes")


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: model parameters plus the node list."""

    phy: PhyConfig
    channel: ChannelParams
    table: NcpbTable
    timing: TimingParams
    energy: EnergyParams
    solver: SolverConfig
    distances: tuple[float, ...]
    r_mins: tuple[float, ...]
    tau: Optional[tuple[float, ...]]
    nts: Optional[tuple[int, ...]]

    def network(self) -> NetworkModel:
        try:
            return build_network(self.distances, self.r_mins, self.phy, self.channel,
                                 self.table, self.timing, self.energy)
        except ValueError as exc:
            raise ScenarioError(f"[nodes] {exc}") from exc

    def with_nodes(self, distances: tuple[float, ...], r_mins: tuple[float, ...]) -> "Scenario":
        return replace(self, distances=distances, r_mins=r_mins, tau=None, nts=None)


def _parse_scalar(section: str, key: str, raw: str, conv: Callable, kind: str):
    try:
        return conv(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: expected {kind}, got {raw!r}") from exc


def _parse_list(section: str, key: str, raw: str, conv: Callable, kind: str) -> tuple:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ScenarioError(f"[{section}] {key}: expected a comma-separated list of {kind}s")
    return tuple(_parse_scalar(section, key, item, conv, kind) for item in items)


def _check_keys(cp: configparser.ConfigParser, section: str, allowed: tuple[str, ...]) -> None:
    for key in cp[section]:
        if key not in allowed:
            raise ScenarioError(f"[{section}] {key}: unknown key (allowed: {', '.join(allowed)})")


def _build(section: str, factory: Callable, kwargs: dict):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {exc}") from exc


def _load_section(cp: configparser.ConfigParser, section: str, factory: Callable,
                  keys: dict[str, tuple[Callable, str]]):
    """factory built from the section's keys, each parsed by its (converter, kind)."""
    kwargs = {}
    if cp.has_section(section):
        _check_keys(cp, section, tuple(keys))
        for key, (conv, kind) in keys.items():
            if key in cp[section]:
                kwargs[key] = _parse_scalar(section, key, cp[section][key], conv, kind)
    return _build(section, factory, kwargs)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on any problem."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"[{section}]: unknown section (allowed: {', '.join(_SECTIONS)})")

    phy = _load_section(cp, "phy", PhyConfig, _PHY_KEYS)
    channel = _load_section(cp, "channel", ChannelParams, _CHANNEL_KEYS)

    if cp.has_section("ncpb"):
        _check_keys(cp, "ncpb", ("table",))
        if "table" not in cp["ncpb"]:
            raise ScenarioError("[ncpb] table: required when the section is present")
        entries = []
        for item in cp["ncpb"]["table"].split(","):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            if len(parts) != 2:
                raise ScenarioError(f"[ncpb] table: expected 'distance:n_cpb' pairs, got {item!r}")
            bound = _parse_scalar("ncpb", "table", parts[0].strip(), *_NUMBER)
            n_cpb = _parse_scalar("ncpb", "table", parts[1].strip(), *_INT)
            entries.append((bound, n_cpb))
        table = _build("ncpb", NcpbTable, {"entries": tuple(entries)})
    else:
        table = NcpbTable()

    timing = _load_section(cp, "timing", TimingParams, _TIMING_KEYS)
    energy = _load_section(cp, "energy", EnergyParams, _ENERGY_KEYS)

    sol_kwargs: dict = {}
    if cp.has_section("solver"):
        _check_keys(cp, "solver", ("objective",))
        if "objective" in cp["solver"]:
            raw = cp["solver"]["objective"].strip().lower()
            if raw not in _OBJECTIVE_NAMES:
                raise ScenarioError(
                    f"[solver] objective: must be one of {sorted(_OBJECTIVE_NAMES)}, got {raw!r}")
            sol_kwargs["objective"] = _OBJECTIVE_NAMES[raw]
    solver = _build("solver", SolverConfig, sol_kwargs)

    if not cp.has_section("nodes"):
        raise ScenarioError("[nodes]: section required; at least one node required")
    _check_keys(cp, "nodes", _NODE_KEYS)
    if "d" not in cp["nodes"]:
        raise ScenarioError("[nodes] d: required; at least one node required")
    distances = _parse_list("nodes", "d", cp["nodes"]["d"], *_NUMBER)
    if "r_min" not in cp["nodes"]:
        raise ScenarioError("[nodes] r_min: required (one value per node)")
    r_mins = _parse_list("nodes", "r_min", cp["nodes"]["r_min"], *_NUMBER)
    if len(r_mins) != len(distances):
        raise ScenarioError(
            f"[nodes] r_min: expected {len(distances)} values to match d, got {len(r_mins)}")

    tau: Optional[tuple[float, ...]] = None
    nts: Optional[tuple[int, ...]] = None
    if "tau" in cp["nodes"]:
        tau = _parse_list("nodes", "tau", cp["nodes"]["tau"], *_NUMBER)
        if len(tau) != len(distances):
            raise ScenarioError(
                f"[nodes] tau: expected {len(distances)} values to match d, got {len(tau)}")
        for k, t in enumerate(tau):
            if not 0.0 <= t <= 1.0:
                raise ScenarioError(f"[nodes] tau: entry {k} must lie in [0, 1], got {t}")
        if "n_t" not in cp["nodes"]:
            raise ScenarioError("[nodes] n_t: required when tau is provided")
    elif "n_t" in cp["nodes"]:
        raise ScenarioError("[nodes] n_t: allowed only with tau (a solve chooses the payloads)")
    if "n_t" in cp["nodes"]:
        nts = _parse_list("nodes", "n_t", cp["nodes"]["n_t"], *_INT)
        if len(nts) != len(distances):
            raise ScenarioError(
                f"[nodes] n_t: expected {len(distances)} values to match d, got {len(nts)}")
        try:
            _check_payloads(phy, nts)
        except ValueError as exc:
            raise ScenarioError(f"[nodes] n_t: {exc}") from exc

    scn = Scenario(phy=phy, channel=channel, table=table, timing=timing, energy=energy,
                   solver=solver, distances=distances, r_mins=r_mins, tau=tau, nts=nts)
    scn.network()  # surface node, link and range errors at load time
    return scn
