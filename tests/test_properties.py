"""Property tests over random access vectors and random networks.

Hypothesis runs derandomized with a small example budget, so the suite
stays deterministic and fast.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from eecap import SimConfig, build_network, simulate
from eecap.access import _leave_one_out, linear_coeffs, state_probs

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Access probabilities: the edges 0 and 1, values within 1e-12 of 1, and
# anything in between.
TAU = st.one_of(
    st.sampled_from((0.0, 1.0)),
    st.floats(0.0, 1e-12).map(lambda e: 1.0 - e),
    st.floats(0.0, 1.0),
)
NT_GRID = tuple(range(126, 2647, 63))


@PROPERTY_SETTINGS
@given(st.lists(TAU, min_size=1, max_size=24))
def test_state_probs_normalise(tau):
    sp = state_probs(tau)
    total = sp.p_success + sp.p_collision + sp.p_idle
    assert abs(total - 1.0) <= 1e-12
    for p in (sp.p_success, sp.p_collision, sp.p_idle, *sp.per_node_success, *sp.busy):
        assert 0.0 <= p <= 1.0
    # The affine decomposition in each tau_k rebuilds the same probabilities.
    for k, t in enumerate(tau):
        if t < 1.0:
            lc = linear_coeffs(tau, k)
            assert abs(lc.x_s * t + lc.y_s - sp.p_success) <= 1e-12
            assert abs(lc.x_c * t + lc.y_c - sp.p_collision) <= 1e-12
            assert abs(lc.x_i * t + lc.y_i - sp.p_idle) <= 1e-12
    for k, got in enumerate(_leave_one_out(tau)):
        want = math.prod(1.0 - t for j, t in enumerate(tau) if j != k)
        assert abs(got - want) <= 1e-12


@st.composite
def networks(draw):
    n = draw(st.integers(1, 6))
    return (
        draw(st.lists(st.floats(1.0, 9.5), min_size=n, max_size=n)),
        draw(st.lists(TAU, min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(NT_GRID), min_size=n, max_size=n)),
        draw(st.integers(1, 5_000)),
        draw(st.integers(0, 2 ** 64 - 1)),
    )


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(networks())
def test_simulate_accounting(case):
    distances, tau, nts, m, seed = case
    net = build_network(distances, [0.0] * len(distances))
    rep = simulate(net, tau, nts, SimConfig(num_slots=m, seed=seed))
    assert sum(rep.per_node_success) == rep.n_success
    for k, t in enumerate(tau):
        assert rep.per_node_delivered[k] <= rep.per_node_success[k]
        if t == 0.0:
            assert rep.per_node_success[k] == 0
            assert rep.per_node_energy[k] == 0.0
