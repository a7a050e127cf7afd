"""Slot-state probabilities of slotted random access with per-node transmit probabilities.

Each node transmits independently in each slot with its own probability
tau_k; a slot is a success for node k when it is the only transmitter,
idle when nobody transmits, and a collision otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class StateProbs:
    """Each node's success and the network's slot-state probabilities at one access vector."""

    per_node_success: tuple[float, ...]   # P_k^S, node k alone transmits
    p_success: float                      # P^S, exactly one transmitter
    p_collision: float                    # P^C, two or more transmitters
    p_idle: float                         # P^I, no transmitter


@dataclass(frozen=True)
class LinearCoeffs:
    """Slopes and intercepts of the slot-state probabilities in one node's tau.

    Holding every other access probability fixed, each network state
    probability is affine in tau_k: P^S = x_s * tau_k + y_s and likewise
    for collision and idle.
    """

    x_s: float
    x_c: float
    x_i: float
    y_s: float
    y_c: float
    y_i: float


def _validate(tau: Sequence[float]) -> None:
    if len(tau) == 0:
        raise ValueError("access vector must contain at least one node")
    for k, t in enumerate(tau):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"tau[{k}]={t} outside [0, 1]")


def _leave_one_out(tau: Sequence[float]) -> list[float]:
    """prod_{j != k} (1 - tau_j) for every k, from prefix and suffix products."""
    out = []
    prefix = 1.0
    for t in tau:
        out.append(prefix)
        prefix *= 1.0 - t
    suffix = 1.0
    for k in range(len(tau) - 1, -1, -1):
        out[k] *= suffix
        suffix *= 1.0 - tau[k]
    return out


def state_probs(tau: Sequence[float]) -> StateProbs:
    """Success, collision and idle probabilities for one slot."""
    _validate(tau)
    others = _leave_one_out(tau)
    per_node = tuple(map(operator.mul, tau, others))
    p_success = sum(per_node)
    p_idle = others[0] * (1.0 - tau[0])
    p_collision = 1.0 - p_success - p_idle
    if p_collision < 0.0:  # roundoff guard, the exact value is non-negative
        p_collision = 0.0
    return StateProbs(
        per_node_success=per_node,
        p_success=p_success,
        p_collision=p_collision,
        p_idle=p_idle,
    )


def linear_coeffs(tau: Sequence[float], node_index: int) -> LinearCoeffs:
    """Affine decomposition of the slot-state probabilities in tau_k.

    The coefficients depend only on the other nodes' access probabilities,
    so the decomposition holds for every value of tau_k in [0, 1].  One
    pass over tau validates it and keeps two running values over the other
    nodes: none, the probability that none of them transmits, and one, the
    probability that exactly one of them does.  Then
    P^S = tau_k * none + (1 - tau_k) * one, P^I = (1 - tau_k) * none, and
    P^C is the rest.
    """
    if len(tau) == 0:
        _validate(tau)  # raises
    if not 0 <= node_index < len(tau):
        raise IndexError(f"node index {node_index} outside 0..{len(tau) - 1}")
    none, one = 1.0, 0.0
    for j, t in enumerate(tau):
        if not 0.0 <= t <= 1.0:
            _validate(tau)  # raises, naming the entry
        if j != node_index:
            c = 1.0 - t
            one = one * c + none * t
            none *= c
    if tau[node_index] == 1.0:
        raise ValueError(f"linearization undefined at tau_k = 1 (node {node_index})")
    return LinearCoeffs(none - one, one, -none, one, 1.0 - none - one, none)
