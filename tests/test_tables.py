"""The per-payload table against the scalar oracles.

evaluate, the feasibility stage's per-node update, the solver, the
simulator and NetworkModel.cost read the PayloadTable that a NetworkModel
builds once; the oracles of tests/oracles.py (cost_model,
frame_success_prob, throughput, energy_efficiency and tau_min_for_rate)
build Node and CostModel objects per call.  The table
must equal the oracles bitwise on random networks, and both paths must
agree on seeded random networks of 1 to 16 nodes, at access probabilities
of exactly 0, exactly 1 (evaluate only) and within 1e-10 of 1, for every
admissible payload size.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eecap import ChannelParams, PhyConfig, build_network, evaluate
from eecap.access import state_probs
from eecap.costs import SPEED_OF_LIGHT
from eecap.solver import _least_odds
from oracles import (Node, cost_model, energy_efficiency, frame_success_prob, tau_min_for_rate,
                     throughput)

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
                y = _least_odds(net.payloads.odds([n_t] * n)[k].tolist(), uo, q)
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


@pytest.mark.parametrize("n_t", [0, -63, 63, 100, 2647, 2709, 127.5])
def test_cost_rejects_off_grid_payload(n_t):
    # NetworkModel.cost reads the payload table, which holds grid payloads only.
    net = build_network([1.0, 2.0], [1e5, 0.0])
    with pytest.raises(ValueError):
        net.cost(1, n_t)


def test_rejects_float_payloads_as_simulate_does():
    # 126.0 lies on the grid in value, but evaluate and simulate share one
    # payload rule, and simulate counts bits in integers.
    net = build_network([1.0, 2.0], [1e5, 0.0])
    for nts in ((126.0, 126.0), (126, True), (126, "126")):
        with pytest.raises(ValueError, match=r"nts\[[01]\] must be an integer"):
            evaluate(net, (0.1, 0.2), nts)


def test_numpy_integer_payloads_give_python_floats():
    net = build_network([1.0, 2.0], [1e5, 0.0])
    _, rates, etas = evaluate(net, (0.1, 0.2), (np.int64(2646), np.int32(1260)))
    assert all(type(v) is float for v in rates + etas)
    assert (rates, etas) == evaluate(net, (0.1, 0.2), (2646, 1260))[1:]


# A link at 7.5 m runs n_cpb > 1 pulses per burst; on the weak channel a
# link at 10 m delivers no frame at its larger payloads (c = 0), with a
# target and without.
EDGES = ([1.0, 7.5, 10.0, 10.0], [1e5, 0.0, 1e3, 0.0], 100.0)


@st.composite
def table_networks(draw):
    """Up to 6 nodes at 1 to 10 m, with or without rate targets, on three channels.

    A target is zero, from 1e-3 to 1e7 bit/s, or infinite; the weakest
    channel leaves the farthest links with no frame success at all.
    """
    n = draw(st.integers(1, 6))
    distances = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    target = st.one_of(st.just(0.0), st.floats(1e-3, 1e7), st.just(math.inf))
    r_mins = draw(st.lists(target, min_size=n, max_size=n))
    return distances, r_mins, draw(st.sampled_from((5530.0, 500.0, 100.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(table_networks())
@example(EDGES)
def test_payload_table_matches_the_oracles_bitwise(case):
    distances, r_mins, tx = case
    net = build_network(distances, r_mins, channel=ChannelParams(tx_eb_over_n0_at_d0=tx))
    pay = net.payloads
    grid = list(net.phy.nt_grid())
    assert pay.nt.tolist() == grid
    assert pay.r_min.tolist() == list(r_mins)
    for k, nm in enumerate(net.nodes):
        for j, n_t in enumerate(grid):
            cost = cost_model(n_t, nm.t_sym, nm.d / SPEED_OF_LIGHT, net.timing, net.energy)
            assert (pay.t_s[k, j], pay.t_c[k, j], pay.t_idle) == (
                cost.t_success, cost.t_collision, cost.t_idle)
            got = net.cost(k, n_t)   # read from the table, as Python floats
            assert got == cost and all(type(value) is float for value in vars(got).values())
            assert (pay.e_s[j], pay.e_c[j]) == (cost.e_success, cost.e_collision)
            f = frame_success_prob(nm.seg, n_t, net.phy.n)
            c = n_t * f
            assert (pay.f[k, j], pay.c[k, j]) == (f, c)
            # The target odds: zero without a target, infinite where no frame
            # gets through, and r_min / c otherwise.
            a = pay.a[k, j]
            if nm.r_min == 0.0:
                assert a == 0.0
            elif c == 0.0:
                assert a == math.inf
            else:
                assert a == nm.r_min / c
    # at() and odds() read the same cells.
    nts = [grid[(7 * k) % len(grid)] for k in range(net.n_nodes)]
    t_s, t_c, e_s, e_c, f, c, a = pay.at(nts)
    js = [grid.index(n_t) for n_t in nts]
    for k, j in enumerate(js):
        assert (t_s[k], t_c[k], f[k], c[k], a[k]) == (
            pay.t_s[k, j], pay.t_c[k, j], pay.f[k, j], pay.c[k, j], pay.a[k, j])
        assert (e_s[k], e_c[k]) == (pay.e_s[j], pay.e_c[j])
        assert pay.odds(nts)[k].tolist() == [a[k] * t_s[k], a[k] * t_c[k], a[k] * pay.t_idle,
                                             c[k], e_s[k], e_c[k]]


def test_the_edge_network_covers_every_convention():
    net = build_network(EDGES[0], EDGES[1], channel=ChannelParams(tx_eb_over_n0_at_d0=EDGES[2]))
    pay = net.payloads
    assert net.nodes[1].link.n_cpb > 1
    dead = pay.c[2] == 0.0
    assert dead.any() and (pay.c[3][dead] == 0.0).all()
    assert (pay.a[2][dead] == math.inf).all() and (pay.a[2][~dead] > 0.0).all()
    assert (pay.a[3] == 0.0).all()
    assert (pay.a[1] == 0.0).all() and (pay.a[0] > 0.0).all() and np.isfinite(pay.a[0]).all()
