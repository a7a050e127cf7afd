"""Slot-level Monte Carlo simulation of the random-access network.

Every node transmits independently per slot with its access probability;
a lone transmitter's frame is delivered with its whole-frame decode
probability.  The simulator is the empirical oracle for the analytic
state probabilities, throughput and energy efficiency, so alongside the
physical accounting (energy charged to transmitters, elapsed time from
the involved nodes' durations) it exposes per-node ratio estimators that
mirror the analytic definitions, with delta-method standard errors.

Each node draws the gaps between its transmissions rather than one
uniform per slot: i.i.d. Bernoulli(tau) slots have i.i.d. geometric
gaps, and node k next transmits floor(log1p(-U) / log1p(-tau_k)) + 1
slots after its last transmission, for a fresh uniform U.  A run so draws
about num_slots * sum(tau) uniforms, plus one per success, instead of
num_slots * (n + 1).  The random stream is per node: child k of
``SeedSequence(seed).spawn(n)`` spawns two PCG64 generators, one for
node k's gaps and one for a delivery uniform per success of node k, in
slot order, compared with its frame success probability.  Only
``Generator.random`` is called: numpy may change the algorithms of its
geometric, binomial and exponential samplers between versions, but not
its uniform doubles.

The slots are counted on the caller's thread a block at a time, from
the transmissions in the block only, so an idle slot costs no work.  A
node draws its gaps in refills and carries the transmissions it has
drawn but not counted into the next block, so a seed gives the same
report whatever the block and refill lengths.  The nodes are ranked in
the order of decreasing collision duration, and each writes its rank
into the slots it transmits in, of one per-slot array the longest last
and of another the shortest last.  A busy slot then holds its longest
transmitter in the first, whose collision duration is the slot's
length, and its shortest in the second, and the two agree in exactly
the slots with one transmitter.  Each node reads both arrays at its own
slots.  A node whose frame success probability is 0 or 1 draws no
delivery uniforms: none could change a delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import CostModel
from .network import NetworkModel, _check_payloads


@dataclass(frozen=True)
class SimConfig:
    num_slots: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_slots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimReport:
    """Counts, empirical probabilities and accounting from one run."""

    num_slots: int
    seed: int
    n_success: int
    n_collision: int
    n_idle: int
    p_success: float
    p_collision: float
    p_idle: float
    per_node_success: tuple[int, ...]
    per_node_delivered: tuple[int, ...]
    per_node_bits: tuple[int, ...]
    per_node_energy: tuple[float, ...]
    elapsed_time: float

    def __post_init__(self) -> None:
        if self.n_success + self.n_collision + self.n_idle != self.num_slots:
            raise ValueError("state counts must sum to num_slots")
        for p in (self.p_success, self.p_collision, self.p_idle):
            if not 0.0 <= p <= 1.0:
                raise ValueError("empirical probabilities must lie in [0, 1]")


# Gaps drawn per refill by all nodes, shared in proportion to their access
# probabilities, so that each node refills about once every
# _REFILL_DRAWS / sum(tau) slots.  On the montecarlo benchmark's points,
# twice as many took about 15 % less time but doubled a call's traced
# peak (0.7-1.1 to 1.4-1.7 MB), and half as many took about 30 % longer.
_REFILL_DRAWS = 1 << 15
# Most slots in a counting block.  Its two rank arrays cost 2 B a slot
# (4 B past 256 nodes), but its transmissions are held until it is
# counted, at 8 B each, so a block also spans no more slots than one
# refill is expected to: about _REFILL_DRAWS transmissions at most.
_BLOCK_SLOTS = 1 << 17
# Most delivery uniforms drawn at a time.
_DELIVERY_DRAWS = 1 << 15


def _block_slots(load: float) -> int:
    """Slots per counting block for access probabilities summing to load."""
    if load * _BLOCK_SLOTS <= _REFILL_DRAWS:
        return _BLOCK_SLOTS
    return max(1, int(_REFILL_DRAWS / load))


def _transmissions(rng: np.random.Generator, tau: float, gaps: np.ndarray, m: int):
    """Yield one node's transmit slots, len(gaps) at a time, as increasing int64 arrays.

    Each refill draws into gaps, a buffer the nodes may share, and needs
    overflow ignored.  A gap is clamped to m + 1 slots, past the last
    slot, so that no access probability, however small, overflows the
    slot numbers.
    """
    scale = math.log1p(-tau) if tau < 1.0 else -math.inf
    last = -1
    while True:
        rng.random(out=gaps)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        gaps /= scale
        # The quotient is never negative, so truncating it floors it.
        np.minimum(gaps, m, out=gaps)
        slots = gaps.astype(np.int64)
        slots += 1
        slots[0] += last
        slots.cumsum(out=slots)
        last = int(slots[-1])
        yield slots


def _count_slots(tau: Sequence[float], gap_seeds: list, nodes: list, rank: np.ndarray,
                 m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's transmissions, successes and slots it is the longest transmitter of.

    nodes lists the transmitting nodes in the order of increasing
    collision duration.  Each draws its share of _REFILL_DRAWS gaps at a
    time, from its generator seeded with gap_seeds[k], into one shared
    buffer, and hands each block of _block_slots slots its transmissions
    before the block's end, keeping the rest for the next block.
    """
    n = len(rank)
    load = math.fsum(tau)
    sizes = [math.ceil(_REFILL_DRAWS * tau[k] / load) for k in nodes]
    gaps = np.empty(max(sizes, default=0))
    refills = {k: _transmissions(np.random.Generator(np.random.PCG64(gap_seeds[k])), tau[k],
                                 gaps[:size], m)
               for k, size in zip(nodes, sizes)}
    block = _block_slots(load)
    longest = np.empty(block, dtype=rank.dtype)
    shortest = np.empty(block, dtype=rank.dtype)
    tally = ([0] * n, [0] * n, [0] * n)
    with np.errstate(over="ignore"):
        pending = {k: next(slots) for k, slots in refills.items()}
        # A silent network's slots are all idle.
        for start in range(0, m if nodes else 0, block):
            _count_block(refills, pending, rank, longest, shortest, start,
                         min(start + block, m), tally)
    return tuple(np.array(counts, dtype=np.int64) for counts in tally)


def _count_block(refills: dict, pending: dict, rank: np.ndarray, longest: np.ndarray,
                 shortest: np.ndarray, start: int, end: int, tally: tuple) -> None:
    """Add each node's transmissions, successes and led slots in [start, end) to tally.

    The nodes write their ranks into their slots of longest in the order
    of refills, the longest last, and of shortest in the reverse order.
    Each node then reads both at its own slots only: it leads (is the
    longest transmitter of) the slots where longest holds its rank, and
    it sends alone where the two agree.
    """
    mine = [(k, int(rank[k]), _take(pending, k, refill, start, end))
            for k, refill in refills.items()]
    for _, r, own in mine:
        longest[own] = r
    for _, r, own in reversed(mine):
        shortest[own] = r
    sent, success, led = tally
    for k, r, own in mine:
        lead = longest[own]
        sent[k] += len(own)
        led[k] += np.count_nonzero(lead == r)
        success[k] += np.count_nonzero(shortest[own] == lead)


def _take(pending: dict, k: int, refill, start: int, end: int) -> np.ndarray:
    """Node k's transmit slots before end, as offsets from start; the rest stay pending."""
    slots, parts = pending[k], []
    while slots[-1] < end:
        parts.append(slots)
        slots = next(refill)
    cut = int(slots.searchsorted(end))
    pending[k] = slots[cut:]
    if not parts:
        # No other block reads these slots, so they are shifted in place.
        own = slots[:cut]
    else:
        parts.append(slots[:cut])
        own = np.concatenate(parts)
    own -= start
    return own


def simulate(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
             cfg: SimConfig) -> SimReport:
    """Run one seeded simulation; identical inputs give identical reports.

    _count_slots counts the slots on the caller's thread, a block at a
    time, reading only the slots the nodes transmit in.  Then each node
    draws one delivery uniform per success, _DELIVERY_DRAWS at a time,
    unless its frame success probability is 0 or 1 and so decides every
    delivery.  Memory is a block's ranks and transmissions and the nodes'
    pending refills, whatever num_slots is.
    """
    n = net.n_nodes
    if len(tau) != n or len(nts) != n:
        raise ValueError("tau and nts must have one entry per node")
    for t in tau:
        if not 0.0 <= t <= 1.0:
            raise ValueError("access probabilities must lie in [0, 1]")
    _check_payloads(net.phy, nts)
    t_succ, t_coll, e_succ, e_coll, p_frames, _, _ = net.payloads.at(nts)
    # Ranks in the order of decreasing collision duration, ties to the
    # lower index: in a collision slot the transmitter of lowest rank has
    # the longest duration, which is the slot's length.
    by_t_coll = np.argsort(-t_coll, kind="stable")
    rank = np.empty(n, dtype=np.min_scalar_type(n - 1))
    rank[by_t_coll] = np.arange(n)

    m = cfg.num_slots
    seeds = [child.spawn(2) for child in np.random.SeedSequence(cfg.seed).spawn(n)]
    # The transmitting nodes in the order they write their ranks, longest last.
    nodes = [int(k) for k in by_t_coll[::-1] if tau[k] > 0.0]
    sent, per_node_success, led = _count_slots(tau, [s[0] for s in seeds], nodes, rank, m)

    coll_longest = led - per_node_success
    coll_tx = sent - per_node_success
    delivered = np.zeros(n, dtype=np.int64)
    for k in nodes:
        # Every uniform is below 1 and none is below 0.
        if p_frames[k] == 1.0:
            delivered[k] = per_node_success[k]
        elif p_frames[k] > 0.0:
            rng = np.random.Generator(np.random.PCG64(seeds[k][1]))
            for first in range(0, per_node_success[k], _DELIVERY_DRAWS):
                size = min(_DELIVERY_DRAWS, per_node_success[k] - first)
                delivered[k] += np.count_nonzero(rng.random(size) < p_frames[k])
    n_success = int(per_node_success.sum())
    n_collision = int(coll_longest.sum())
    n_idle = m - n_success - n_collision

    elapsed = float(per_node_success @ t_succ) + n_idle * net.payloads.t_idle
    elapsed += float(coll_longest @ t_coll)

    energy = per_node_success * e_succ + coll_tx * e_coll

    return SimReport(
        num_slots=m,
        seed=cfg.seed,
        n_success=n_success,
        n_collision=n_collision,
        n_idle=n_idle,
        p_success=n_success / m,
        p_collision=n_collision / m,
        p_idle=n_idle / m,
        per_node_success=tuple(int(v) for v in per_node_success),
        per_node_delivered=tuple(int(v) for v in delivered),
        per_node_bits=tuple(int(v) * int(nts[k]) for k, v in enumerate(delivered)),
        per_node_energy=tuple(float(v) for v in energy),
        elapsed_time=elapsed,
    )


def _ratio_estimate(report: SimReport, node_index: int, n_t: int,
                    w_success: float, w_collision: float, w_idle: float) -> tuple[float, float]:
    """Delta-method mean and standard error of delivered bits over state-weighted totals.

    Per slot, the numerator sample is n_t on delivery (only possible in the
    node's own success slots) and the denominator sample is the
    state-appropriate weight, so all moments follow from the counts.
    """
    m = report.num_slots
    deliv = report.per_node_delivered[node_index]
    b_mean = n_t * deliv / m
    d_mean = (report.n_success * w_success + report.n_collision * w_collision
              + report.n_idle * w_idle) / m
    ratio = b_mean / d_mean if d_mean > 0.0 else 0.0
    eb2 = n_t * n_t * deliv / m
    ebd = n_t * w_success * deliv / m
    ed2 = (report.n_success * w_success ** 2 + report.n_collision * w_collision ** 2
           + report.n_idle * w_idle ** 2) / m
    var_b = eb2 - b_mean * b_mean
    var_d = ed2 - d_mean * d_mean
    cov = ebd - b_mean * d_mean
    var_ratio = (var_b - 2.0 * ratio * cov + ratio * ratio * var_d)
    if d_mean > 0.0:
        var_ratio /= m * d_mean * d_mean
    se = math.sqrt(max(var_ratio, 0.0))
    return ratio, se


def rate_estimate(report: SimReport, node_index: int, n_t: int,
                  cost: CostModel) -> tuple[float, float]:
    """Empirical throughput of one node with its delta-method standard error."""
    return _ratio_estimate(report, node_index, n_t,
                           cost.t_success, cost.t_collision, cost.t_idle)


def efficiency_estimate(report: SimReport, node_index: int, n_t: int,
                        cost: CostModel) -> tuple[float, float]:
    """Empirical energy efficiency of one node with its standard error; idle slots cost 0 J."""
    return _ratio_estimate(report, node_index, n_t,
                           cost.e_success, cost.e_collision, 0.0)


def z_score(estimate: float, se: float, analytic: float) -> float:
    """Standardized difference; exact agreement at zero spread scores zero."""
    if se == 0.0:
        return 0.0 if estimate == analytic else math.inf
    return (estimate - analytic) / se
