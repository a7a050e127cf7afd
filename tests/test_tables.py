"""The per-node coefficient rows against the scalar oracles.

evaluate and the feasibility stage's per-node update read the rows
build_network derives once per network; metrics.throughput,
energy_efficiency and tau_min_for_rate build Node and CostModel objects
per call.  Both paths must agree on seeded random networks of 1 to 16
nodes, at access probabilities of exactly 0, exactly 1 (evaluate only) and
within 1e-10 of 1, for every admissible payload size.
"""

from __future__ import annotations

import math
import random

import pytest

from eecap import (
    ChannelParams,
    Node,
    PhyConfig,
    build_network,
    energy_efficiency,
    evaluate,
    state_probs,
    tau_min_for_rate,
    throughput,
)
from eecap.solver import _least_odds, _odds_row

GRID = list(PhyConfig().nt_grid())
REL = 1e-12


def close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got == pytest.approx(want, rel=REL, abs=0.0)


def random_network(rng: random.Random, n: int):
    d = [rng.uniform(1.0, 9.5) for _ in range(n)]
    r_min = [rng.choice([0.0, 10.0 ** rng.uniform(2.0, 7.0)]) for _ in range(n)]
    # A weak transmitter makes every PHY segment probability fall below one.
    channel = ChannelParams(tx_eb_over_n0_at_d0=500.0) if rng.random() < 0.5 else None
    return build_network(d, r_min, channel=channel)


def random_tau(rng: random.Random, n: int) -> list[float]:
    return [rng.choice([0.0, 1.0, 1.0 - rng.uniform(0.0, 1e-10), rng.uniform(0.0, 1.0),
                        rng.uniform(0.0, 1.0 / n)]) for _ in range(n)]


def networks():
    rng = random.Random(20240617)
    for n in range(1, 17):
        for _ in range(3):
            yield rng, random_network(rng, n)


def test_evaluate_matches_scalar_metrics():
    checked = 0
    for rng, net in networks():
        n = net.n_nodes
        for g in range(len(GRID)):
            tau = random_tau(rng, n)
            nts = [GRID[(g + j) % len(GRID)] for j in range(n)]
            sp, rates, etas = evaluate(net, tau, nts, guard_zero_energy=True)
            assert sp == state_probs(tau)
            for k, nm in enumerate(net.nodes):
                node = Node(index=k, d=nm.d, tau=tau[k], n_t=nts[k], r_min=nm.r_min)
                cost = net.cost(k, nts[k])
                assert close(rates[k], throughput(node, sp, cost, nm.seg, net.phy.n))
                if sp.p_success + sp.p_collision > 0.0:
                    want = energy_efficiency(node, sp, cost, nm.seg, net.phy.n)
                    assert close(etas[k], want)
                checked += 1
    assert checked > 10_000


def test_stage_update_matches_scalar_oracle():
    """The feasibility stage's least odds per node against tau_min_for_rate.

    The stage's iterates stay below tau = 1, so exact ones of random_tau
    are moved just below it.
    """
    outcomes = {"none": 0, "zero": 0, "value": 0}
    for rng, net in networks():
        n = net.n_nodes
        tau = [min(t, 1.0 - 1e-12) for t in random_tau(rng, n)]
        x = [t / (1.0 - t) for t in tau]
        for k, nm in enumerate(net.nodes):
            others = x[:k] + x[k + 1:]
            uo, q = sum(others), math.prod([1.0 + xi for xi in others])
            for n_t in GRID:
                node = Node(index=k, d=nm.d, tau=tau[k], n_t=n_t, r_min=nm.r_min)
                want = tau_min_for_rate(node, tau, net.cost(k, n_t), nm.seg, net.phy.n)
                y = _least_odds(_odds_row(net.rows[k], n_t, net.phy.n), uo, q)
                got = y / (1.0 + y)
                got = got if got < 1.0 else None
                assert close(got, want), (n, k, n_t)
                outcomes["none" if got is None else "zero" if got == 0.0 else "value"] += 1
    assert all(count > 100 for count in outcomes.values()), outcomes


def test_guard_zero_energy():
    net = build_network([1.0, 2.0, 3.0], [1e5, 1e5, 1e5])
    nts = [126, 1260, 2646]
    sp, rates, etas = evaluate(net, [0.0, 0.0, 0.0], nts, guard_zero_energy=True)
    assert sp.p_idle == 1.0
    assert rates == (0.0, 0.0, 0.0)
    assert etas == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        evaluate(net, [0.0, 0.0, 0.0], nts)
    with pytest.raises(ValueError):
        energy_efficiency(Node(0, 1.0, 0.0, 126, 1e5), sp, net.cost(0, 126), net.nodes[0].seg)


@pytest.mark.parametrize("tau", [(0.2, -1e-12, 0.1), (0.2, 1.0 + 1e-12, 0.1),
                                 (0.2, float("nan"), 0.1)])
def test_rejects_tau_outside_unit_interval(tau):
    net = build_network([1.0, 2.0, 3.0], [1e5, 1e5, 1e5])
    with pytest.raises(ValueError):
        evaluate(net, tau, [126, 126, 126])


@pytest.mark.parametrize("n_t", [0, -63, 63, 100, 2647, 2709, 127.5])
def test_rejects_off_grid_payload(n_t):
    net = build_network([1.0, 2.0], [1e5, 0.0])
    with pytest.raises(ValueError):
        evaluate(net, (0.1, 0.2), (126, n_t))
