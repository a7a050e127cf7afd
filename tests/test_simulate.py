"""Seeded Monte Carlo simulator and its ratio estimators.

Determinism is checked field by field, the time and energy accounting
against an independent slot-by-slot pure-Python replay of the same
per-node random streams, the streamed simulator against a one-shot
version of its gap sampler at the edges of its gap refills and counting
blocks, its reports under other block and refill lengths and from
concurrent worker threads against the default lone call's, and the
estimators against the analytic models through standardized
differences, at fixed seeds and over a sweep of seeds.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from eecap import (
    ChannelParams,
    SimConfig,
    SimReport,
    build_network,
    efficiency_estimate,
    evaluate,
    rate_estimate,
    simulate,
)
from eecap.access import state_probs
from eecap.simulate import z_score
from oracles import frame_success_prob

# The package re-exports the function simulate under the submodule's name.
SIM = importlib.import_module("eecap.simulate")


def _refill_slots(tau):
    """Slots one gap refill spans for a node that always transmits (c)."""
    return math.ceil(SIM._REFILL_DRAWS / math.fsum(tau))


def _block_length(tau):
    """Slots per counting block (b)."""
    return SIM._block_slots(math.fsum(tau))


# Slot counts at the edges of the gap refills (c slots each for a node
# that always transmits) and counting blocks (b slots each), as
# units * unit(tau) + extra.
SLOT_EDGES = pytest.mark.parametrize(
    "unit, units, extra",
    ((_refill_slots, 0, 1), (_refill_slots, 1, -1), (_refill_slots, 1, 0), (_refill_slots, 1, 1),
     (_refill_slots, 3, 5), (_block_length, 1, -1), (_block_length, 1, 0), (_block_length, 1, 1),
     (_block_length, 3, 5)),
    ids=("1", "c-1", "c", "c+1", "3c+5", "b-1", "b", "b+1", "3b+5"))


def _streams(seed, n):
    """Each node's gap and delivery generators, as simulate seeds them."""
    return [[np.random.Generator(np.random.PCG64(s)) for s in child.spawn(2)]
            for child in np.random.SeedSequence(seed).spawn(n)]


def _one_shot_simulate(net, tau, nts, cfg):
    """Reference: the gap sampler with each node's draws made at once and every slot held."""
    n = net.n_nodes
    costs = [net.cost(k, nts[k]) for k in range(n)]
    p_frames = np.array([frame_success_prob(net.nodes[k].seg, nts[k], net.phy.n) for k in range(n)])
    t_succ = np.array([c.t_success for c in costs])
    t_coll = np.array([c.t_collision for c in costs])
    t_idle = costs[0].t_idle

    m = cfg.num_slots
    streams = _streams(cfg.seed, n)
    tx = np.zeros((m, n), dtype=bool)
    for k, t in enumerate(tau):
        if t > 0.0:
            # m gaps of at least one slot each reach past the last slot.
            u = streams[k][0].random(m)
            with np.errstate(divide="ignore", over="ignore"):
                gaps = np.floor(np.log1p(-u) / np.log1p(-t)) + 1
            slots = np.cumsum(np.minimum(gaps, m + 1).astype(np.int64)) - 1
            tx[slots[slots < m], k] = True

    ntx = tx.sum(axis=1)
    success = ntx == 1
    collision = ntx >= 2
    n_success = int(success.sum())
    n_collision = int(collision.sum())
    n_idle = int((ntx == 0).sum())

    per_node_success = (tx & success[:, None]).sum(axis=0)
    delivered = [int(np.count_nonzero(streams[k][1].random(s) < p_frames[k]))
                 for k, s in enumerate(per_node_success)]
    coll_tx = (tx & collision[:, None]).sum(axis=0)

    elapsed = float(per_node_success @ t_succ) + n_idle * t_idle
    if n_collision > 0:
        coll_rows = tx[collision]
        coll_durations = np.where(coll_rows, t_coll[None, :], -np.inf).max(axis=1)
        elapsed += float(coll_durations.sum())

    e_succ = np.array([c.e_success for c in costs])
    e_coll = np.array([c.e_collision for c in costs])
    energy = per_node_success * e_succ + coll_tx * e_coll
    return {
        "n_success": n_success,
        "n_collision": n_collision,
        "n_idle": n_idle,
        "per_node_success": tuple(int(v) for v in per_node_success),
        "per_node_delivered": tuple(delivered),
        "per_node_bits": tuple(v * nts[k] for k, v in enumerate(delivered)),
        "per_node_energy": tuple(float(v) for v in energy),
        "elapsed_time": elapsed,
    }


class TestDeterminism:
    def test_same_seed_same_report(self, two_node_net):
        cfg = SimConfig(num_slots=50_000, seed=99)
        a = simulate(two_node_net, (0.3, 0.2), (2646, 1260), cfg)
        b = simulate(two_node_net, (0.3, 0.2), (2646, 1260), cfg)
        assert a == b

    def test_different_seed_different_draws(self, two_node_net):
        a = simulate(two_node_net, (0.3, 0.2), (2646, 2646), SimConfig(num_slots=50_000, seed=1))
        b = simulate(two_node_net, (0.3, 0.2), (2646, 2646), SimConfig(num_slots=50_000, seed=2))
        assert a.n_success != b.n_success or a.per_node_delivered != b.per_node_delivered


class TestDegenerateInputs:
    def test_silent_network_only_idles(self, two_node_net):
        cfg = SimConfig(num_slots=10_000, seed=0)
        rep = simulate(two_node_net, (0.0, 0.0), (126, 126), cfg)
        assert rep.p_idle == 1.0
        assert rep.n_success == 0 and rep.n_collision == 0
        assert rep.per_node_energy == (0.0, 0.0)
        t_idle = two_node_net.cost(0, 126).t_idle
        assert rep.elapsed_time == pytest.approx(10_000 * t_idle, rel=1e-12)

    # Every slot holds all n transmitters.  255 is the most a uint8 counts
    # and 256 the most nodes whose ranks (0 to 255) fit in one; a count or
    # rank that wrapped would read as a success or as idle.
    @pytest.mark.parametrize("n", (2, 255, 256, 257))
    def test_saturated_network_only_collides(self, n):
        net = build_network([1.0] * n, [0.0] * n)
        nts = [(126, 252)[k % 2] for k in range(n)]
        cfg = SimConfig(num_slots=5_000, seed=0)
        rep = simulate(net, [1.0] * n, nts, cfg)
        assert rep.p_collision == 1.0 and rep.n_idle == 0
        costs = [net.cost(k, nt) for k, nt in enumerate(nts)]
        for k, c in enumerate(costs):
            assert rep.per_node_energy[k] == pytest.approx(5_000 * c.e_collision, rel=1e-12)
        want_elapsed = 5_000 * max(c.t_collision for c in costs)
        assert rep.elapsed_time == pytest.approx(want_elapsed, rel=1e-12)
        assert rep.per_node_delivered == (0,) * n

    def test_input_validation(self, two_node_net):
        with pytest.raises(ValueError):
            simulate(two_node_net, (0.5,), (126, 126), SimConfig(num_slots=10))
        with pytest.raises(ValueError):
            simulate(two_node_net, (0.5, 1.0001), (126, 126), SimConfig(num_slots=10))
        with pytest.raises(ValueError):
            SimConfig(num_slots=0)
        with pytest.raises(ValueError):
            SimConfig(num_slots=10, seed=-1)
        for bad in ({"num_slots": 10.5}, {"num_slots": 10.0}, {"num_slots": True},
                    {"seed": 1.5}, {"seed": False}, {"seed": "1"}):
            with pytest.raises(ValueError):
                SimConfig(**bad)
        cfg = SimConfig(num_slots=np.int64(10), seed=np.uint64(3))
        assert type(cfg.num_slots) is int and type(cfg.seed) is int
        # Payload sizes are integers too; numpy integers count as such.
        for nts in ((2646.0, 2646), (2646, True), (2646, "2646")):
            with pytest.raises(ValueError, match=r"nts\[[01]\] must be an integer"):
                simulate(two_node_net, (0.3, 0.2), nts, SimConfig(num_slots=10))
        # And they lie on the payload grid, multiples of 63 in [126, 2646].
        for nts in ((63, 2646), (2646, 2709), (2646, np.int64(6300))):
            with pytest.raises(ValueError, match=r"nts\[[01]\] = .* off the payload grid"):
                simulate(two_node_net, (0.3, 0.2), nts, SimConfig(num_slots=10))
        rep = simulate(two_node_net, (0.3, 0.2), (np.int64(2646), np.int32(1260)),
                       SimConfig(num_slots=1_000))
        assert all(type(bits) is int for bits in rep.per_node_bits)
        with pytest.raises(ValueError):
            SimReport(num_slots=10, seed=0, n_success=3, n_collision=3, n_idle=3,
                      p_success=0.3, p_collision=0.3, p_idle=0.3,
                      per_node_success=(), per_node_delivered=(), per_node_bits=(),
                      per_node_energy=(), elapsed_time=1.0)


class TestAgainstReplay:
    def test_counts_time_and_energy_match_pure_python(self, lossy_net):
        tau = (0.3, 0.25, 0.1)
        nts = (630, 1260, 126)
        cfg = SimConfig(num_slots=2_000, seed=5)
        rep = simulate(lossy_net, tau, nts, cfg)

        streams = _streams(5, 3)
        costs = [lossy_net.cost(k, nts[k]) for k in range(3)]
        p_frames = [frame_success_prob(lossy_net.nodes[k].seg, nts[k]) for k in range(3)]

        def gap(k):
            return math.floor(math.log1p(-streams[k][0].random()) / math.log1p(-tau[k])) + 1

        next_slot = [gap(k) - 1 for k in range(3)]
        n_s = n_c = n_i = 0
        succ = [0, 0, 0]
        deliv = [0, 0, 0]
        energy = [0.0, 0.0, 0.0]
        elapsed = 0.0
        for slot in range(2_000):
            active = [k for k in range(3) if next_slot[k] == slot]
            for k in active:
                next_slot[k] += gap(k)
            if not active:
                n_i += 1
                elapsed += costs[0].t_idle
            elif len(active) == 1:
                k = active[0]
                n_s += 1
                succ[k] += 1
                energy[k] += costs[k].e_success
                elapsed += costs[k].t_success
                if streams[k][1].random() < p_frames[k]:
                    deliv[k] += 1
            else:
                n_c += 1
                elapsed += max(costs[k].t_collision for k in active)
                for k in active:
                    energy[k] += costs[k].e_collision
        assert (rep.n_success, rep.n_collision, rep.n_idle) == (n_s, n_c, n_i)
        assert rep.per_node_success == tuple(succ)
        assert rep.per_node_delivered == tuple(deliv)
        assert rep.per_node_bits == tuple(d * n for d, n in zip(deliv, nts))
        for a, b in zip(rep.per_node_energy, energy):
            assert a == pytest.approx(b, rel=1e-12)
        assert rep.elapsed_time == pytest.approx(elapsed, rel=1e-12)


def _random_case(n, edges):
    """Network, access probabilities, payloads and seed of a seeded random run.

    With edges, node 0 always transmits and node 1 never does.
    """
    rng = np.random.default_rng(n * 1_000 + edges)
    # Unequal payloads give unequal collision durations, so which
    # transmitter is the longest decides each collision slot's length;
    # past the grid's 41 payloads some must repeat.
    grid = list(range(126, 2647, 63))
    nts = [int(v) for v in rng.choice(grid, n, replace=n > len(grid))]
    net = build_network(list(rng.uniform(1.0, 9.5, n)), [0.0] * n)
    tau = [float(t) for t in rng.uniform(0.05, 0.6, n)]
    if edges:
        tau[0] = 1.0
        if n > 1:
            tau[1] = 0.0
    return net, tau, nts, int(rng.integers(2 ** 63))


class TestChunkedStream:
    """The streamed simulator replays the one-shot gap sampler's random stream."""

    @pytest.mark.parametrize("n", (1, 2, 7, 16, 300))
    @SLOT_EDGES
    @pytest.mark.parametrize("edges", (False, True), ids=("inner", "edges"))
    def test_matches_one_shot_at_chunk_boundaries(self, n, unit, units, extra, edges):
        net, tau, nts, seed = _random_case(n, edges)
        self.check(net, tau, nts, SimConfig(num_slots=units * unit(tau) + extra, seed=seed))

    def test_matches_one_shot_with_crowded_slots(self):
        """300 nodes that each send with probability 0.9 or more crowd a slot past 255."""
        net, tau, nts, seed = _random_case(300, False)
        tau = [1.0 - t / 6.0 for t in tau]
        rep = self.check(net, tau, nts, SimConfig(num_slots=3 * _block_length(tau) + 5, seed=seed))
        assert rep.p_collision == 1.0

    @staticmethod
    def check(net, tau, nts, cfg):
        rep = simulate(net, tau, nts, cfg)
        want = _one_shot_simulate(net, tau, nts, cfg)
        got = {k: getattr(rep, k) for k in want}
        assert got.pop("elapsed_time") == pytest.approx(want.pop("elapsed_time"), rel=1e-12)
        assert got == want
        return rep


class TestBlockSplit:
    """A seed gives the same report whatever the block and refill lengths."""

    # n = 256 is the most nodes whose ranks (0 to 255) fit in a uint8.
    @pytest.mark.parametrize("n", (1, 2, 16, 256))
    @SLOT_EDGES
    @pytest.mark.parametrize("edges", (False, True), ids=("inner", "edges"))
    def test_reports_do_not_depend_on_the_block_length(self, monkeypatch, n, unit, units, extra,
                                                       edges):
        net, tau, nts, seed = _random_case(n, edges)
        cfg = SimConfig(num_slots=units * unit(tau) + extra, seed=seed)
        want = repr(simulate(net, tau, nts, cfg))
        for block, refill in ((5_000, 1 << 12), (1 << 16, 1 << 17)):
            monkeypatch.setattr(SIM, "_BLOCK_SLOTS", block)
            monkeypatch.setattr(SIM, "_REFILL_DRAWS", refill)
            assert repr(simulate(net, tau, nts, cfg)) == want, (block, refill)


class TestWorkerSplit:
    """simulate counts on its caller's thread, so worker threads may call it at once."""

    @pytest.mark.parametrize("n", (1, 2, 16, 256))
    @SLOT_EDGES
    @pytest.mark.parametrize("edges", (False, True), ids=("inner", "edges"))
    def test_reports_do_not_depend_on_the_worker_count(self, n, unit, units, extra, edges):
        """Worker threads that simulate one case at once each get the lone call's report."""
        net, tau, nts, seed = _random_case(n, edges)
        cfg = SimConfig(num_slots=units * unit(tau) + extra, seed=seed)
        want = repr(simulate(net, tau, nts, cfg))
        for workers in (2, 3, 4):
            start = threading.Barrier(workers, timeout=60)
            reports = [None] * workers

            def run(i):
                start.wait()
                reports[i] = repr(simulate(net, tau, nts, cfg))

            # Daemon threads with a deadline: a call that shares state may never return.
            threads = [threading.Thread(target=run, args=(i,), daemon=True)
                       for i in range(workers)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60.0
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), workers
            assert reports == [want] * workers, workers

    def test_workers_load_no_thread_pool_module(self):
        """concurrent.futures, with the logging and queue modules it loads, costs ~0.4 MB."""
        src = os.path.dirname(os.path.dirname(SIM.__file__))
        code = ("import importlib, sys\n"
                "from eecap import SimConfig, build_network, simulate\n"
                "SIM = importlib.import_module('eecap.simulate')\n"
                "SIM._worker_count = lambda chunks: 2\n"
                "simulate(build_network([1.0, 1.0], [0.0, 0.0]), (0.3, 0.2), (126, 126),\n"
                "         SimConfig(num_slots=100_000))\n"
                "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


class TestBoundedMemory:
    def test_traced_peak_is_flat_in_slots(self):
        # The access probabilities sum to 0.5 in every case, so a counting
        # block spans the slots of one refill; n = 1 holds the largest gap
        # buffer, and n = 256 runs fewer slots to stay fast.
        for n, slots in ((1, 2_000_000), (2, 2_000_000), (16, 2_000_000), (256, 200_000)):
            net = build_network([1.0 + 0.5 * (k % 16) for k in range(n)], [0.0] * n)
            tau = [0.5 / n] * n
            nts = [126 + 63 * (k % 41) for k in range(n)]
            peaks = {}
            for m in (slots // 10, slots):
                tracemalloc.start()
                try:
                    simulate(net, tau, nts, SimConfig(num_slots=m, seed=1))
                    peaks[m] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peaks[slots] < 16 * 2 ** 20
            assert peaks[slots] < 4 * 2 ** 20, n
            assert peaks[slots] <= 1.5 * peaks[slots // 10], n


class TestEstimators:
    def test_states_and_node_metrics_within_three_sigma(self, lossy_net):
        tau = (0.3, 0.25, 0.1)
        nts = (630, 1260, 126)
        cfg = SimConfig(num_slots=400_000, seed=0)
        rep = simulate(lossy_net, tau, nts, cfg)
        sp, rates, etas = evaluate(lossy_net, tau, nts)
        for want, got in ((sp.p_success, rep.p_success),
                          (sp.p_collision, rep.p_collision),
                          (sp.p_idle, rep.p_idle)):
            se = math.sqrt(want * (1 - want) / cfg.num_slots)
            assert abs(z_score(got, se, want)) <= 3.0
        for k in range(3):
            cost = lossy_net.cost(k, nts[k])
            est, se = rate_estimate(rep, k, nts[k], cost)
            assert se > 0.0
            assert abs(z_score(est, se, rates[k])) <= 3.0
            est, se = efficiency_estimate(rep, k, nts[k], cost)
            assert se > 0.0
            assert abs(z_score(est, se, etas[k])) <= 3.0

    def test_even_coin_access_state_frequencies(self, two_node_net):
        m = 1_000_000
        rep = simulate(two_node_net, (0.5, 0.5), (126, 126),
                       SimConfig(num_slots=m, seed=11))
        for est, p in ((rep.p_success, 0.5),
                       (rep.p_collision, 0.25),
                       (rep.p_idle, 0.25)):
            assert abs(est - p) <= 3.0 * math.sqrt(p * (1.0 - p) / m)

    def test_standard_error_shrinks_with_slots(self, two_node_net):
        ses = []
        for m in (10_000, 40_000, 160_000):
            rep = simulate(two_node_net, (0.3, 0.2), (2646, 2646), SimConfig(num_slots=m, seed=3))
            _, se = rate_estimate(rep, 0, 2646, two_node_net.cost(0, 2646))
            ses.append(se)
        assert ses[0] > ses[1] > ses[2]
        # Root-m scaling within loose factors.
        assert ses[0] / ses[2] == pytest.approx(4.0, rel=0.3)

    def test_identical_nodes_give_similar_estimates(self):
        net = build_network([2.0, 2.0], [1e5, 1e5])
        rep = simulate(net, (0.25, 0.25), (1260, 1260), SimConfig(num_slots=200_000, seed=11))
        r0, se0 = rate_estimate(rep, 0, 1260, net.cost(0, 1260))
        r1, se1 = rate_estimate(rep, 1, 1260, net.cost(1, 1260))
        assert abs(r0 - r1) <= 4.0 * math.hypot(se0, se1)

    @pytest.mark.parametrize("tau", ((1e-3, 0.05, 0.25, 0.45), (1.0, 1e-3, 0.1, 0.35)),
                             ids=("mixed", "saturated"))
    def test_binomial_z_scores_over_fifty_seeds(self, tau):
        """Each state count, success count and delivery count is binomial in the slots.

        Over 50 seeds their z-scores pool to mean 0 and spread 1, and no
        count's mean z strays past 4 standard errors.  A count whose
        probability is 0 or 1 must be exact.
        """
        net = build_network([1.0, 3.0, 4.45, 2.0], [0.0] * 4,
                            channel=ChannelParams(tx_eb_over_n0_at_d0=500.0))
        nts = (630, 1260, 126, 2646)
        m, seeds = 20_000, 50
        sp = state_probs(tau)
        want = {"success": sp.p_success, "collision": sp.p_collision, "idle": sp.p_idle}
        for k in range(4):
            want[f"success {k}"] = sp.per_node_success[k]
            want[f"delivered {k}"] = (sp.per_node_success[k]
                                      * frame_success_prob(net.nodes[k].seg, nts[k]))
        zs = {q: [] for q, p in want.items() if 0.0 < p < 1.0}
        for seed in range(seeds):
            rep = simulate(net, tau, nts, SimConfig(num_slots=m, seed=seed))
            got = {"success": rep.n_success, "collision": rep.n_collision, "idle": rep.n_idle}
            for k in range(4):
                got[f"success {k}"] = rep.per_node_success[k]
                got[f"delivered {k}"] = rep.per_node_delivered[k]
            for q, p in want.items():
                if q in zs:
                    zs[q].append((got[q] - m * p) / math.sqrt(m * p * (1.0 - p)))
                else:
                    assert got[q] == m * p, q
        pooled = [z for values in zs.values() for z in values]
        assert abs(statistics.fmean(pooled)) <= 0.3
        assert 0.7 <= statistics.stdev(pooled) <= 1.3
        for q, values in zs.items():
            assert abs(statistics.fmean(values)) <= 4.0 / math.sqrt(seeds), q

    def test_z_score_edge_cases(self):
        assert z_score(1.0, 0.0, 1.0) == 0.0
        assert z_score(1.0, 0.0, 2.0) == math.inf
        assert z_score(3.0, 2.0, 1.0) == 1.0


class TestPhysicalClock:
    """Bits per second of the simulator's clock estimate c_k x_k / D~ (eecap.network).

    The model's rate c_k x_k / D_k times every slot with node k's own
    durations; the simulator times a collision by its longest transmitter.
    """

    @pytest.mark.parametrize("case", range(3))
    def test_bits_over_elapsed_time_match_the_physical_rate(self, case):
        rng = random.Random(f"physical clock/{case}")
        n = 3 + case
        # One distance in each n-th of [1, 7.5] m, so the nodes span several n_cpb.
        net = build_network([1.0 + 6.5 * (k + rng.random()) / n for k in range(n)], [0.0] * n)
        assert len({nm.link.n_cpb for nm in net.nodes}) > 1
        nts = [rng.choice(range(126, 2647, 63)) for _ in range(n)]
        tau = [rng.uniform(0.1, 0.6) / n for _ in range(n)]
        costs = [net.cost(k, nt) for k, nt in enumerate(nts)]
        x = [t / (1.0 - t) for t in tau]
        d_tilde = math.fsum(xk * c.t_success for xk, c in zip(x, costs)) + costs[0].t_idle
        after = 1.0   # product of 1 + x over the nodes of shorter collisions
        for i in sorted(range(n), key=lambda k: costs[k].t_collision):
            d_tilde += costs[i].t_collision * x[i] * (after - 1.0)
            after *= 1.0 + x[i]

        seeds = 20
        ratios = [[] for _ in range(n)]
        for seed in range(seeds):
            rep = simulate(net, tau, nts, SimConfig(num_slots=200_000, seed=seed))
            for k in range(n):
                ratios[k].append(rep.per_node_bits[k] / rep.elapsed_time)
        for k in range(n):
            c_k = nts[k] * frame_success_prob(net.nodes[k].seg, nts[k])
            se = statistics.stdev(ratios[k]) / math.sqrt(seeds)
            assert abs(z_score(statistics.fmean(ratios[k]), se, c_k * x[k] / d_tilde)) <= 4.0, k


class TestReportSerialization:
    def test_report_is_frozen(self, two_node_net):
        rep = simulate(two_node_net, (0.1, 0.1), (126, 126), SimConfig(num_slots=100, seed=0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.n_success = 0


class TestEstimatorsOnEveryReport:
    """rate_estimate and efficiency_estimate accept whatever simulate returns."""

    def test_every_node_of_every_report(self):
        rng = np.random.default_rng(5)
        grid = list(range(126, 2647, 63))
        for trial in range(12):
            n = int(rng.integers(1, 7))
            net = build_network(list(rng.uniform(1.0, 9.5, n)), [0.0] * n)
            tau = [float(t) for t in rng.choice([0.0, 0.05, 0.3, 1.0], n)]
            nts = [int(v) for v in rng.choice(grid, n)]
            rep = simulate(net, tau, nts, SimConfig(num_slots=int(rng.integers(1, 3_000)),
                                                    seed=trial))
            for field in ("per_node_success", "per_node_delivered", "per_node_bits",
                          "per_node_energy"):
                assert len(getattr(rep, field)) == n
            for k in range(n):
                cost = net.cost(k, nts[k])
                for est, se in (rate_estimate(rep, k, nts[k], cost),
                                efficiency_estimate(rep, k, nts[k], cost)):
                    assert math.isfinite(est) and est >= 0.0
                    assert math.isfinite(se) and se >= 0.0

    def test_no_per_node_switch(self):
        with pytest.raises(TypeError):
            SimConfig(num_slots=10, record_per_node=False)
