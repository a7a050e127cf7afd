"""Slot-level Monte Carlo simulation of the random-access network.

Every node transmits independently per slot with its access probability;
a lone transmitter's frame is delivered with its whole-frame decode
probability.  The simulator is the empirical oracle for the analytic
state probabilities, throughput and energy efficiency, so alongside the
physical accounting (energy charged to transmitters, elapsed time from
the involved nodes' durations) it exposes per-node ratio estimators that
mirror the analytic definitions, with delta-method standard errors.

The slots are streamed in two loops that only add to integer counts.
The inner loop draws a fixed-size chunk of transmit uniforms at a time
and compares it with the access probabilities into a counting block of
transmit flags, whole chunks long; the outer loop draws the block's
delivery uniforms and counts the block in one pass.  A block is the most
whole chunks within 1 << 14 slots and 1 << 18 flags, and at least one
chunk, so memory is O(chunk + block) whatever ``num_slots`` is.  The
random stream is that of one ``PCG64(seed)`` generator drawing all
slots x nodes transmit uniforms in slot-major order and then one delivery
uniform per slot; the loops replay it exactly, so a seed gives the same
report however the slots are chunked and blocked, and however they are
shared among the worker threads that count them (see ``simulate``).

A block's counts are integer arithmetic on its boolean transmit matrix.
One product of the matrix's bytes with a ones vector, of a dtype wide
enough to hold n, gives each slot's transmitter count.  In a success slot
the lone transmitter's column is the sender, and one bincount of the
sender plus n where the slot's delivery uniform falls below the sender's
frame success probability gives the per-node undelivered successes and
deliveries.  The collision rows are selected once, for the per-node
transmissions and the longest transmitter.  Counting only reads the
draws, so the stream and every report field stay those of the seed.
"""

from __future__ import annotations

import functools
import math
import os
import threading
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
    se_success: float
    se_collision: float
    se_idle: float
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


# Transmit draws in flight per simulate call, 512 KiB of float64, shared
# among its worker threads.
_CHUNK_DRAWS = 1 << 16
# Most slots and most transmit flags (a byte each) in a counting block,
# whose length is rounded down to whole chunks (at least one).  Counting a
# block takes about fifteen numpy calls whatever its length; counted chunk
# by chunk, a few thousand slots at a time, those calls kept two workers
# from running faster than one.  The slot bound caps the per-slot
# temporaries at small n, the flag bound the flags and the per-flag
# temporaries at large n.
_COUNT_SLOTS = 1 << 14
_COUNT_FLAGS = 1 << 18
# Most threads one simulate call counts slots on, the caller's included;
# two is the only count measured (on a 2-vCPU host).
_MAX_WORKERS = 2
# Least transmit draws per row of a chunk's comparison with the access
# probabilities.  numpy runs a comparison of rows this long without a
# buffer, where rows of n draws would be copied through a 64 KiB one.
_COMPARE_DRAWS = 1 << 13


def _compare_slots(n: int) -> int:
    """Slots per comparison row for a network of n nodes."""
    return -(-_COMPARE_DRAWS // n)


def _chunk_slots(n: int, workers: int = 1) -> int:
    """Slots per chunk, whole comparison rows, for n nodes split among the workers."""
    slots = _CHUNK_DRAWS // (workers * n)
    return max(_compare_slots(n), slots - slots % _compare_slots(n))


def _worker_count(chunks: int) -> int:
    """Threads for a run of the given number of one-worker chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks, _MAX_WORKERS))


def _block_slots(n: int, workers: int = 1) -> int:
    """Slots per counting block: the most whole chunks within both bounds, at least one."""
    step = _chunk_slots(n, workers)
    return step * max(1, min(_COUNT_SLOTS, _COUNT_FLAGS // n) // step)


def _count_slots(seed: int, m: int, tau_rows: np.ndarray, p_frames: np.ndarray,
                 by_t_coll: np.ndarray, lo: int, hi: int, draws: np.ndarray,
                 tx_block: np.ndarray, u_block: np.ndarray) -> np.ndarray:
    """Counts of slots [lo, hi) of the seed's stream, a block of len(tx_block) slots at a time.

    Rows of the result: per node, its success slots not delivered, its
    deliveries, the collision slots it transmitted in, and those it was
    the longest transmitter of.  draws is the chunk buffer of transmit
    uniforms, tx_block the block's transmit flags (whole chunks) and
    u_block its delivery uniforms, and tau_rows is the access probabilities
    tiled to one comparison row.  Calls nothing but numpy, so it may run on
    any thread.
    """
    step, n = draws.shape
    block = len(tx_block)
    # Each float64 takes one 64-bit step: the transmit draws of slot s start
    # at step s * n, and the delivery uniforms follow all m * n of them.
    tx_bits = np.random.PCG64(seed)
    tx_bits.advance(lo * n)
    tx_rng = np.random.Generator(tx_bits)
    delivery_bits = np.random.PCG64(seed)
    delivery_bits.advance(m * n + lo)
    delivery_rng = np.random.Generator(delivery_bits)

    counts = np.zeros((4, n), dtype=np.int64)
    # Wide enough for a slot where all n nodes transmit.
    ones = np.ones(n, dtype=np.min_scalar_type(n))
    width = len(tau_rows)
    for start in range(lo, hi, block):
        rows = min(block, hi - start)
        for first in range(0, rows, step):
            tx_rng.random(out=draws[:min(step, rows - first)])
            # A short last chunk also compares the stale draws past its
            # rows, whose flags are never read.
            np.less(draws.reshape(-1, width), tau_rows,
                    out=tx_block[first:first + step].reshape(-1, width))
        tx = tx_block[:rows]
        u = u_block[:rows]
        delivery_rng.random(out=u)
        ntx = tx.view(np.uint8) @ ones
        succ = np.flatnonzero(ntx == 1)
        who = tx[succ].argmax(axis=1)
        counts[:2] += np.bincount(who + n * (u[succ] < p_frames[who]), minlength=2 * n).reshape(2, n)
        coll_rows = tx[ntx >= 2]
        counts[2] += coll_rows.sum(axis=0)
        longest = by_t_coll[coll_rows[:, by_t_coll].argmax(axis=1)]
        counts[3] += np.bincount(longest, minlength=n)
    return counts


def simulate(net: NetworkModel, tau: Sequence[float], nts: Sequence[int],
             cfg: SimConfig) -> SimReport:
    """Run one seeded simulation; identical inputs give identical reports.

    The slots are split into contiguous slices of whole chunks, one per
    worker thread, and each worker replays its own slice of the seed's
    stream: two generators advanced to the slice's first transmit draw and
    its first delivery uniform.  A worker counts its slice a block of
    slots at a time.  Its inner loop draws one chunk of transmit uniforms
    at a time into its share of the _CHUNK_DRAWS draws in flight and
    compares them into the block's transmit flags; its outer loop draws
    the block's delivery uniforms and counts the whole block at once.  A
    block is the most whole chunks within _COUNT_SLOTS slots and
    _COUNT_FLAGS flags, and at least one chunk.  The workers only add to
    integer counts, which the caller sums, so every report field is the
    same whatever the worker count.  The count is the number of available
    CPUs, capped by the chunk count and by _MAX_WORKERS (2, the only count
    measured).  The caller's thread counts the first slice and one thread
    per other slice counts the rest; all are joined before the call
    returns, and a worker's exception is raised again in the caller.
    Memory per worker is its share of the draws in flight plus its block
    (a byte of flag per slot and node, 8 bytes of delivery uniform per
    slot) and temporaries of at most the block's order, whatever
    num_slots is.
    """
    n = net.n_nodes
    if len(tau) != n or len(nts) != n:
        raise ValueError("tau and nts must have one entry per node")
    for t in tau:
        if not 0.0 <= t <= 1.0:
            raise ValueError("access probabilities must lie in [0, 1]")
    _check_payloads(net.phy, nts)
    t_succ, t_coll, e_succ, e_coll, p_frames, _, _ = net.payloads.at(nts)
    t_idle = float(net.payloads.t_idle[0])
    # In a collision slot the first transmitter in this order has the
    # longest collision duration, which is the slot's length.
    by_t_coll = np.argsort(-t_coll, kind="stable")

    m = cfg.num_slots
    workers = _worker_count(-(-m // _chunk_slots(n)))
    step = _chunk_slots(n, workers)
    block = _block_slots(n, workers)
    chunks = -(-m // step)
    bounds = [step * (chunks * i // workers) for i in range(workers)] + [m]
    tau_rows = np.tile(np.asarray(tau, dtype=float), _compare_slots(n))
    count = functools.partial(_count_slots, cfg.seed, m, tau_rows, p_frames, by_t_coll)
    # The buffers come from the caller's thread, whose heap is already paged
    # in; zeroed, so stale draws are never NaN.
    slices = [(lo, hi, np.zeros((step, n)), np.empty((block, n), dtype=bool), np.empty(block))
              for lo, hi in zip(bounds, bounds[1:])]
    results: list = [None] * workers

    def work(i: int) -> None:
        try:
            results[i] = count(*slices[i])
        except BaseException as exc:   # raised again on the caller's thread
            results[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for t in threads:
        t.start()
    try:
        results[0] = count(*slices[0])
    finally:
        for t in threads:
            t.join()
    for r in results[1:]:
        if isinstance(r, BaseException):
            raise r
    counts = sum(results)
    delivered = counts[1]
    per_node_success = counts[0] + delivered
    coll_tx, coll_longest = counts[2], counts[3]
    n_success = int(per_node_success.sum())
    n_collision = int(coll_longest.sum())
    n_idle = m - n_success - n_collision

    elapsed = float(per_node_success @ t_succ) + n_idle * t_idle
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
        se_success=math.sqrt(n_success / m * (1.0 - n_success / m) / m),
        se_collision=math.sqrt(n_collision / m * (1.0 - n_collision / m) / m),
        se_idle=math.sqrt(n_idle / m * (1.0 - n_idle / m) / m),
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
