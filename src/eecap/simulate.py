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
the transmissions in the block.  A node draws its gaps in refills that
span several blocks and carries the transmissions it has drawn but not
counted into the next block, so a seed gives the same report whatever
the block length.  A bincount of the block's transmit slots gives each
slot's transmitter count.  The nodes write their rank, in the order of
decreasing collision duration, into the slots they transmit in, the
longest last; a success slot then holds its sender and a collision slot
its longest transmitter, whose collision duration is the slot's length.
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


# Most slots in a counting block, most transmissions expected in one
# where the access probabilities sum past 1, and most delivery uniforms
# drawn at a time.
_BLOCK_SLOTS = 1 << 15
# Gaps drawn per refill by all nodes, shared in proportion to their access
# probabilities, so that each node refills about once every
# _REFILL_DRAWS / sum(tau) slots: two blocks at a sum of 0.5.  On the
# montecarlo benchmark's points, twice as many raised the peak RSS by
# 0.9 MB, and half as many saved 0.4 MB but took about 20 % longer.
_REFILL_DRAWS = 1 << 15


def _block_slots(load: float) -> int:
    """Slots per counting block for access probabilities summing to load."""
    return max(1, int(_BLOCK_SLOTS / max(load, 1.0)))


def _transmissions(rng: np.random.Generator, tau: float, size: int, m: int):
    """Yield one node's transmit slots, size at a time, as increasing int64 arrays.

    A gap is clamped to m + 1 slots, past the last slot, so that no access
    probability, however small, overflows the slot numbers.
    """
    scale = math.log1p(-tau) if tau < 1.0 else -math.inf
    last = -1
    while True:
        gaps = rng.random(size)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        with np.errstate(over="ignore"):
            gaps /= scale
        np.floor(gaps, out=gaps)
        gaps += 1.0
        np.minimum(gaps, m + 1, out=gaps)
        slots = gaps.astype(np.int64)
        np.cumsum(slots, out=slots)
        slots += last
        last = int(slots[-1])
        yield slots


def simulate(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
             cfg: SimConfig) -> SimReport:
    """Run one seeded simulation; identical inputs give identical reports.

    Every node with a positive access probability draws its share of
    _REFILL_DRAWS gaps at a time.  The caller's thread counts the slots in
    blocks of _block_slots slots: each node hands a block its transmissions
    before the block's end, refilling as often as the block needs, and
    keeps the rest for the next block.  A bincount of the block's
    transmit slots gives each slot's transmitter count, and the ranks the
    nodes write into their slots give each success slot's sender and each
    collision slot's longest transmitter.  Once every slot is counted,
    each node draws one delivery uniform per success, _BLOCK_SLOTS at
    a time.  Memory is a block's per-slot counts and ranks, its
    transmissions and the nodes' pending refills, whatever num_slots is.
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
    load = math.fsum(tau)
    seeds = [child.spawn(2) for child in np.random.SeedSequence(cfg.seed).spawn(n)]
    # The transmitting nodes in the order they write their ranks, longest last.
    nodes = [int(k) for k in by_t_coll[::-1] if tau[k] > 0.0]
    refills = {k: _transmissions(np.random.Generator(np.random.PCG64(seeds[k][0])), tau[k],
                                 math.ceil(_REFILL_DRAWS * tau[k] / load), m)
               for k in nodes}
    pending = {k: next(refills[k]) for k in nodes}

    block = _block_slots(load)
    owner = np.zeros(block, dtype=rank.dtype)
    sent = np.zeros(n, dtype=np.int64)
    # By rank, row 1: success slots sent; row 2: collision slots the longest
    # transmitter of.  Row 0 counts the idle slots under stale ranks.
    states = np.zeros(3 * n, dtype=np.int64)
    # A silent network's slots are all idle.
    for start in range(0, m if nodes else 0, block):
        end = min(start + block, m)
        parts, sizes = [], []
        for k in nodes:
            slots, size = pending[k], 0
            while slots[-1] < end:
                parts.append(slots)
                size += len(slots)
                slots = next(refills[k])
            cut = int(slots.searchsorted(end))
            parts.append(slots[:cut])
            sizes.append(size + cut)
            pending[k] = slots[cut:]
        offsets = np.concatenate(parts)
        offsets -= start
        lo = 0
        for k, size in zip(nodes, sizes):
            owner[offsets[lo:lo + size]] = rank[k]
            lo += size
        sent[nodes] += sizes
        # Each slot's state (0 idle, 1 success, 2 collision) times n, plus its rank.
        state = np.bincount(offsets, minlength=end - start)
        np.minimum(state, 2, out=state)
        state *= n
        state += owner[:end - start]
        states += np.bincount(state, minlength=3 * n)

    per_node_success, coll_longest = states.reshape(3, n)[1:, rank]
    coll_tx = sent - per_node_success
    delivered = np.zeros(n, dtype=np.int64)
    for k in nodes:
        rng = np.random.Generator(np.random.PCG64(seeds[k][1]))
        for first in range(0, per_node_success[k], _BLOCK_SLOTS):
            size = min(_BLOCK_SLOTS, per_node_success[k] - first)
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
    """Empirical energy efficiency of one node with its standard error."""
    return _ratio_estimate(report, node_index, n_t,
                           cost.e_success, cost.e_collision, cost.e_idle)


def z_score(estimate: float, se: float, analytic: float) -> float:
    """Standardized difference; exact agreement at zero spread scores zero."""
    if se == 0.0:
        return 0.0 if estimate == analytic else math.inf
    return (estimate - analytic) / se
