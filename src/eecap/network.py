"""Per-node model assembly for a one-hop star network.

Combines the channel map, the PHY error chain and the state cost models
into one immutable network description the solver, the simulator and the
CLI all consume.  Each node gets its own link budget, segment decode
probabilities, payload symbol period (scaled by its pulses-per-burst
count) and propagation delay.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

from .access import StateProbs, state_probs
from .channel import ChannelParams, NcpbTable, link_budget
from .costs import (SPEED_OF_LIGHT, CostModel, EnergyParams, TimingParams, ack_duration,
                    cost_model)
from .metrics import _check_payload, frame_success_prob
from .phy import LinkBudget, PhyConfig, SegmentProbs, bit_error_prob, segment_probs


@dataclass(frozen=True, slots=True)
class NodeModel:
    """One node's link, error probabilities and timing, all distance-derived."""

    index: int
    d: float
    r_min: float
    link: LinkBudget
    p_b: float
    seg: SegmentProbs
    t_sym: float              # payload symbol period at this node's burst length
    timing: TimingParams      # shared header/guard times with this node's t_sym


class NodeCoeffs(NamedTuple):
    """One node's payload-independent cost and decode coefficients.

    A NetworkModel derives one row per node when it is built, so the hot
    paths (evaluate and the solver) compute a slot cost from a few floats
    instead of building CostModel objects.  costs() repeats the arithmetic
    of cost_model step for step, so both paths agree bitwise.
    """

    hdr: float          # t_shr + t_phr, seconds
    ack: float          # ACK frame duration, seconds
    t_sym: float        # payload symbol period, seconds
    psifs: float        # short interframe space, seconds
    sigma: float        # one-way propagation delay, seconds
    t_idle: float       # idle slot duration, seconds
    p_hdr: float        # header decode probability, p_shr * p_phr
    p_cw: float
    r_min: float
    eps_b: float
    eps_oh: float
    eps_st: float
    eps_b_tx: float
    eps_oh_tx: float
    eps_st_tx: float

    def costs(self, n_t: int) -> tuple[float, float, float, float]:
        """(t_success, t_collision, e_success, e_collision) at payload n_t."""
        hdr, ack, t_sym, psifs, sigma, _, _, _, _, eb, eoh, est, ebt, eoht, estt = self
        t_frame = hdr + n_t * t_sym
        return (t_frame + ack + 2.0 * psifs + 2.0 * sigma,
                t_frame + psifs + sigma,
                eb * n_t + eoh + est,
                ebt * n_t + eoht + estt)


@dataclass(frozen=True)
class NetworkModel:
    """Immutable bundle of everything needed to evaluate one scenario.

    rows holds one NodeCoeffs per node, derived from the other fields.
    """

    phy: PhyConfig
    channel: ChannelParams
    table: NcpbTable
    energy: EnergyParams
    nodes: tuple[NodeModel, ...]
    rows: tuple[NodeCoeffs, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ep = self.energy
        frames = {}   # (hdr, ack) per distinct TimingParams, shared by its nodes
        rows = []
        for nm in self.nodes:
            tp, seg = nm.timing, nm.seg
            if id(tp) not in frames:
                frames[id(tp)] = (tp.t_shr + tp.t_phr, ack_duration(tp))
            hdr, ack = frames[id(tp)]
            rows.append(NodeCoeffs(
                hdr=hdr, ack=ack, t_sym=tp.t_sym,
                psifs=tp.t_psifs, sigma=tp.sigma[nm.index], t_idle=tp.t_idle_slot,
                p_hdr=seg.p_shr * seg.p_phr,
                p_cw=seg.p_cw, r_min=nm.r_min,
                eps_b=ep.eps_b, eps_oh=ep.eps_oh, eps_st=ep.eps_st,
                eps_b_tx=ep.eps_b_tx, eps_oh_tx=ep.eps_oh_tx, eps_st_tx=ep.eps_st_tx))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def nt_grid(self) -> range:
        return self.phy.nt_grid()

    def cost(self, node_index: int, n_t: int) -> CostModel:
        """Per-state costs for one node at one payload size."""
        return cost_model(node_index, n_t, self.nodes[node_index].timing, self.energy)


def build_network(distances: Sequence[float], r_mins: Sequence[float],
                  phy: Optional[PhyConfig] = None,
                  channel: Optional[ChannelParams] = None,
                  table: Optional[NcpbTable] = None,
                  timing: Optional[TimingParams] = None,
                  energy: Optional[EnergyParams] = None) -> NetworkModel:
    """Derive every per-node model from the node distances and rate targets.

    The payload symbol period of a node is the configured base period times
    its pulses-per-burst count, and its propagation delay is d / c.  A rate
    target is zero or at least the smallest normal float (infinity is an
    unreachable target, NaN is rejected): the solver's products of a
    subnormal target with slot durations underflow to zero.
    """
    if len(distances) == 0:
        raise ValueError("at least one node required")
    if len(r_mins) != len(distances):
        raise ValueError("r_mins and distances must have the same length")
    phy = phy if phy is not None else PhyConfig()
    channel = channel if channel is not None else ChannelParams()
    table = table if table is not None else NcpbTable()
    timing = timing if timing is not None else TimingParams()
    energy = energy if energy is not None else EnergyParams()
    sigma = tuple(d / SPEED_OF_LIGHT for d in distances)
    timings: dict[float, TimingParams] = {}   # nodes with equal burst length share one
    nodes = []
    for k, (d, r_min) in enumerate(zip(distances, r_mins)):
        if not r_min >= 0.0:   # NaN too
            raise ValueError(f"r_min[{k}] must be non-negative, got {r_min}")
        if 0.0 < r_min < sys.float_info.min:
            raise ValueError(f"r_min[{k}] = {r_min} is subnormal; use 0 or at least {sys.float_info.min}")
        lb = link_budget(d, channel, table, phy)
        p_b = bit_error_prob(lb, phy)
        seg = segment_probs(p_b, phy)
        t_sym = phy.t_sym * lb.n_cpb
        node_timing = timings.get(t_sym)
        if node_timing is None:
            node_timing = timings[t_sym] = replace(timing, t_sym=t_sym, sigma=sigma)
        nodes.append(NodeModel(index=k, d=d, r_min=r_min, link=lb, p_b=p_b,
                               seg=seg, t_sym=t_sym, timing=node_timing))
    return NetworkModel(phy=phy, channel=channel, table=table, energy=energy,
                        nodes=tuple(nodes))


def evaluate(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
             guard_zero_energy: bool = False) -> tuple[StateProbs, tuple[float, ...], tuple[float, ...]]:
    """Slot-state probabilities plus per-node throughput and efficiency.

    With guard_zero_energy, a zero average-energy denominator yields an
    efficiency of 0.0 instead of an error; the solver uses this to keep
    objective evaluations total during the search.  Reads the per-node
    rows with the arithmetic of metrics.throughput and energy_efficiency.
    """
    if len(tau) != net.n_nodes or len(nts) != net.n_nodes:
        raise ValueError("tau and nts must have one entry per node")
    sp = state_probs(tau)
    p_s, p_c, p_i = sp.p_success, sp.p_collision, sp.p_idle
    n = net.phy.n
    rates = []
    etas = []
    for row, n_t, p_k in zip(net.rows, nts, sp.per_node_success):
        if n_t <= 0 or n_t % n != 0:
            _check_payload(n_t, n)  # raises
        t_s, t_c, e_s, e_c = row.costs(n_t)
        num = n_t * p_k * (row.p_hdr * row.p_cw ** (n_t // n))
        rates.append(num / (p_s * t_s + p_c * t_c + p_i * row.t_idle))
        e_den = p_s * e_s + p_c * e_c
        if e_den > 0.0:
            etas.append(num / e_den)
        elif guard_zero_energy:
            etas.append(0.0)
        else:
            raise ValueError("efficiency undefined at zero activity")
    return sp, tuple(rates), tuple(etas)


def frame_success(net: NetworkModel, node_index: int, n_t: int) -> float:
    """Whole-frame decode probability for one node at one payload size."""
    return frame_success_prob(net.nodes[node_index].seg, n_t, net.phy.n)
