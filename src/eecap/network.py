"""Per-node model assembly for a one-hop star network.

Combines the channel map, the PHY error chain and the state cost models
into one immutable network description the solver, the simulator and the
CLI all consume.  Each node gets its own link budget (its burst SNR,
pulses-per-burst count and integration interval, from eecap.channel),
segment decode probabilities and payload symbol period (scaled by its
pulses-per-burst count); its propagation delay is d / SPEED_OF_LIGHT.
The header, guard and idle-slot times (TimingParams) are the network's,
held once.

EECAP chooses an access probability and a payload size per node, so every
layer reads one thing: a node's slot costs and frame success at a payload.
A NetworkModel builds them once, as its PayloadTable of numpy arrays over
the nodes and every admissible payload size; evaluate, the solver, the
simulator and NetworkModel.cost read them only there, and no other code
in the package prices a slot.  The table repeats the arithmetic of the
test suite's scalar cost, frame-success, throughput and efficiency
oracles (tests/oracles.py), so it agrees with them bitwise.

The rate model times node k with its own slot durations.  In odds
x = tau / (1 - tau), with u = sum(x) and v = prod(1 + x) - 1 - u, node k's
rate is c_k x_k / D_k with D_k = u t_s,k + v t_c,k + t_idle: every
success and collision slot is priced at node k's t_s,k and t_c,k.  By the
physical clock, which SimReport.elapsed_time follows, a success slot lasts
its sender's t_s and a collision slot its longest transmitter's t_c.
With P = prod(1 + x) and the nodes (1), ..., (n) in the order of falling
t_c, the mean slot then lasts D~ / P, where

    D~ = sum_j x_j t_s,j + sum_i t_c,(i) x_(i) (prod_{j > i} (1 + x_(j)) - 1) + t_idle,

and node k delivers c_k x_k / D~ bits per second.  The two rates agree
where all nodes have the same slot durations; these depend on the payload,
and on the distance through the burst length n_cpb.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .access import StateProbs, state_probs
from .channel import ChannelParams, NcpbTable, link_budget
from .costs import ACK_PAYLOAD_BITS, SPEED_OF_LIGHT, CostModel, EnergyParams, TimingParams
from .phy import LinkBudget, PhyConfig, SegmentProbs, bit_error_prob, segment_probs


@dataclass(frozen=True, slots=True)
class NodeModel:
    """One node's link, segment decode probabilities and symbol period, all distance-derived."""

    d: float
    r_min: float
    link: LinkBudget
    seg: SegmentProbs
    t_sym: float      # payload symbol period at this node's burst length, seconds


class PayloadTable(NamedTuple):
    """Every node's slot costs, frame success and target odds at every grid payload.

    nt holds the G payloads of phy.nt_grid().  t_s and t_c (success and
    collision slot times), f (the probability that a success slot delivers
    its frame), c = nt f (payload bits per success slot) and a = r_min / c
    (the access odds the node's rate target needs per second of its
    average slot) are (n, G) arrays over the nodes and payloads; a is zero
    without a target and infinite for a payload that delivers nothing.  The
    slot energies e_s and e_c are (G,) and the idle slot time t_idle is one
    float, since EnergyParams and TimingParams are network-wide; r_min is
    (n,).  A success slot carries the frame, an ACK, two guards and two
    propagation trips, a collision the frame, one guard and one trip.  The
    entries repeat the arithmetic of the cost and frame-success oracles in
    tests/oracles.py step for step, so they agree with both bitwise.
    """

    nt: np.ndarray
    t_s: np.ndarray
    t_c: np.ndarray
    e_s: np.ndarray
    e_c: np.ndarray
    f: np.ndarray
    c: np.ndarray
    a: np.ndarray
    t_idle: float
    r_min: np.ndarray

    @classmethod
    def build(cls, phy: PhyConfig, tp: TimingParams, ep: EnergyParams,
              nodes: Sequence[NodeModel]) -> PayloadTable:
        n, grid = phy.n, phy.nt_grid()
        nt = np.array(grid)
        # Symbol and propagation times, (n, 1) each.
        t_sym = np.array([nm.t_sym for nm in nodes])[:, None]
        sigma = np.array([nm.d / SPEED_OF_LIGHT for nm in nodes])[:, None]
        t_frame = tp.t_shr + tp.t_phr + nt * t_sym
        t_ack = tp.t_shr + tp.t_phr + ACK_PAYLOAD_BITS * t_sym
        # Python's float ** int, as the frame-success oracle takes it: numpy's
        # power can differ from it in the last bit.  Nearby nodes share one p_cw.
        p_cw = [nm.seg.p_cw for nm in nodes]
        distinct = sorted(set(p_cw))
        powers = np.array([[p ** (n_t // n) for n_t in grid] for p in distinct])
        p_hdr = np.array([nm.seg.p_shr * nm.seg.p_phr for nm in nodes])[:, None]
        f = p_hdr * powers[np.searchsorted(distinct, p_cw)]
        c = nt * f
        r_min = np.array([nm.r_min for nm in nodes])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.where(r_min[:, None] > 0.0, r_min[:, None] / c, 0.0)
        return cls(nt=nt,
                   t_s=t_frame + t_ack + 2.0 * tp.t_psifs + 2.0 * sigma,
                   t_c=t_frame + tp.t_psifs + sigma,
                   e_s=ep.eps_b * nt + ep.eps_oh + ep.eps_st,
                   e_c=ep.eps_b_tx * nt + ep.eps_oh_tx + ep.eps_st_tx,
                   f=f, c=c, a=a,
                   t_idle=tp.t_idle_slot,
                   r_min=r_min)

    def at(self, nts: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(t_s, t_c, e_s, e_c, f, c, a) of every node at payloads nts, each (n,)."""
        k, j = np.arange(len(nts)), np.searchsorted(self.nt, nts)
        return (self.t_s[k, j], self.t_c[k, j], self.e_s[j], self.e_c[j],
                self.f[k, j], self.c[k, j], self.a[k, j])

    def odds(self, nts: Sequence[int]) -> np.ndarray:
        """(n, 6) rows (a t_s, a t_c, a t_idle, c, e_s, e_c) at payloads nts.

        In odds, node k's rate target reads x_k >= a (u t_s + v t_c + t_idle)
        (see eecap.solver); the lifts read the targets and the
        efficiencies from these rows.
        """
        t_s, t_c, e_s, e_c, _, c, a = self.at(nts)
        return np.stack((a * t_s, a * t_c, a * self.t_idle, c, e_s, e_c), axis=1)


@dataclass(frozen=True)
class NetworkModel:
    """Immutable bundle of everything needed to evaluate one scenario.

    The channel and the pulses-per-burst table enter only through each
    node's link budget: its burst SNR and pulses per burst.  payloads is
    the network's PayloadTable, derived from the other fields.
    """

    phy: PhyConfig
    timing: TimingParams
    energy: EnergyParams
    nodes: tuple[NodeModel, ...]
    payloads: PayloadTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "payloads",
                           PayloadTable.build(self.phy, self.timing, self.energy, self.nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def cost(self, node_index: int, n_t: int) -> CostModel:
        """Per-state costs for one node at one grid payload size, read from the payload table."""
        _check_payloads(self.phy, [n_t])
        pay, j = self.payloads, int(np.searchsorted(self.payloads.nt, n_t))
        return CostModel(pay.t_s[node_index, j].item(), pay.t_c[node_index, j].item(), pay.t_idle,
                         pay.e_s[j].item(), pay.e_c[j].item())


def build_network(distances: Sequence[float], r_mins: Sequence[float],
                  phy: Optional[PhyConfig] = None,
                  channel: Optional[ChannelParams] = None,
                  table: Optional[NcpbTable] = None,
                  timing: Optional[TimingParams] = None,
                  energy: Optional[EnergyParams] = None) -> NetworkModel:
    """Derive every per-node model from the node distances and rate targets.

    The payload symbol period of a node is the configured base period times
    its pulses-per-burst count, and its propagation delay is d / c.  Every
    distance is positive (NaN is rejected).  A rate target is zero or at
    least the smallest normal float (infinity is an unreachable target, NaN
    is rejected): the solver's products of a subnormal target with slot
    durations underflow to zero.  A bad entry raises ValueError naming its
    list and index.
    """
    if len(distances) == 0:
        raise ValueError("at least one node required")
    if len(r_mins) != len(distances):
        raise ValueError("r_mins and distances must have the same length")
    for k, d in enumerate(distances):
        if not d > 0.0:   # NaN too
            raise ValueError(f"d: entry {k} must be positive, got {d}")
    for k, r in enumerate(r_mins):
        if not r >= 0.0 or 0.0 < r < sys.float_info.min:   # NaN too
            raise ValueError(f"r_min: entry {k} must be non-negative and not subnormal, got {r}")
    phy = phy if phy is not None else PhyConfig()
    channel = channel if channel is not None else ChannelParams()
    table = table if table is not None else NcpbTable()
    timing = timing if timing is not None else TimingParams()
    energy = energy if energy is not None else EnergyParams()
    nodes = []
    for d, r_min in zip(distances, r_mins):
        lb = link_budget(d, channel, table, phy)
        seg = segment_probs(bit_error_prob(lb, phy), phy)
        nodes.append(NodeModel(d=d, r_min=r_min, link=lb, seg=seg, t_sym=phy.t_sym * lb.n_cpb))
    return NetworkModel(phy=phy, timing=timing, energy=energy, nodes=tuple(nodes))


def _check_payloads(phy: PhyConfig, nts: Sequence[int]) -> None:
    """Raise ValueError unless every payload size is an integer on phy.nt_grid().

    numpy integers count as integers; floats and bools do not, even where
    their value lies on the grid.
    """
    for k, n_t in enumerate(nts):
        if isinstance(n_t, bool) or not isinstance(n_t, (int, np.integer)):
            raise ValueError(f"nts[{k}] must be an integer, not {n_t!r}")
        if not (phy.n_t_min <= n_t <= phy.n_t_max and n_t % phy.n == 0):
            raise ValueError(f"nts[{k}] = {n_t!r} is off the payload grid: a multiple of "
                             f"{phy.n} in [{phy.n_t_min}, {phy.n_t_max}]")


def evaluate(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
             guard_zero_energy: bool = False) -> tuple[StateProbs, tuple[float, ...], tuple[float, ...]]:
    """Slot-state probabilities plus per-node throughput and efficiency.

    With guard_zero_energy, a zero average-energy denominator yields an
    efficiency of 0.0 instead of an error; the solver uses this to keep
    objective evaluations total during the search.  Reads net.payloads
    with the arithmetic of the throughput and energy_efficiency oracles in
    tests/oracles.py.  A payload size off net.phy.nt_grid() raises
    ValueError.
    """
    if len(tau) != net.n_nodes or len(nts) != net.n_nodes:
        raise ValueError("tau and nts must have one entry per node")
    _check_payloads(net.phy, nts)
    sp = state_probs(tau)
    p_s, p_c, p_i = sp.p_success, sp.p_collision, sp.p_idle
    pay = net.payloads
    cols = [col.tolist() for col in pay.at(nts)[:5]]
    idle = p_i * pay.t_idle
    rates = []
    etas = []
    for n_t, p_k, t_s, t_c, e_s, e_c, f in zip(nts, sp.per_node_success, *cols):
        num = int(n_t) * p_k * f   # int: a numpy integer would make every result a numpy float
        rates.append(num / (p_s * t_s + p_c * t_c + idle))
        e_den = p_s * e_s + p_c * e_c
        if e_den > 0.0:
            etas.append(num / e_den)
        elif guard_zero_energy:
            etas.append(0.0)
        else:
            raise ValueError("efficiency undefined at zero activity")
    return sp, tuple(rates), tuple(etas)
