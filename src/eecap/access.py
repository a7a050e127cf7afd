"""Slot-state probabilities of slotted random access with per-node transmit probabilities.

Each node transmits independently in each slot with its own probability
tau_k; a slot is a success for node k when it is the only transmitter,
idle when nobody transmits, and a collision otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

# Below this complement value the leave-one-out product is rebuilt by
# direct multiplication instead of division, which would lose precision.
_DIVIDE_FLOOR = 1e-9


@dataclass(frozen=True)
class StateProbs:
    """Network-wide slot-state probabilities at one access vector."""

    per_node_success: tuple[float, ...]   # P_k^S, node k alone transmits
    p_success: float                      # P^S, exactly one transmitter
    p_collision: float                    # P^C, two or more transmitters
    p_idle: float                         # P^I, no transmitter
    busy: tuple[float, ...]               # p_k, anyone but k transmits


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
    """prod_{j != k} (1 - tau_j) for every k, stable near tau_j = 1."""
    comp = [1.0 - t for t in tau]
    total = 1.0
    for c in comp:
        total *= c
    return [total / c if c >= _DIVIDE_FLOOR else _product_except(tau, (k,))
            for k, c in enumerate(comp)]


def _product_except(tau: Sequence[float], skip: Sequence[int]) -> float:
    """prod (1 - tau_i) over i not in skip, by direct multiplication."""
    prod = 1.0
    for i, t in enumerate(tau):
        if i not in skip:
            prod *= 1.0 - t
    return prod


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
    busy = tuple([1.0 - o for o in others])
    return StateProbs(
        per_node_success=per_node,
        p_success=p_success,
        p_collision=p_collision,
        p_idle=p_idle,
        busy=busy,
    )


def _affine(tau: Sequence[float], k: int) -> tuple[float, float, float, float, float, float]:
    """(x_s, x_c, x_i, y_s, y_c, y_i) of linear_coeffs as a plain tuple.

    Two passes over tau: the first validates it and takes the product of
    the complements, the second sums the cross terms, with every
    leave-one-out product taken as in _leave_one_out.
    """
    if len(tau) == 0:
        _validate(tau)  # raises
    total = 1.0
    for t in tau:
        if not 0.0 <= t <= 1.0:
            _validate(tau)  # raises, naming the entry
        total *= 1.0 - t
    if tau[k] == 1.0:
        raise ValueError(f"linearization undefined at tau_k = 1 (node {k})")
    comp_k = 1.0 - tau[k]
    x_c = 0.0
    # x_c sums tau_j * prod_{i not in {j, k}} (1 - tau_i) over j != k.
    if comp_k >= _DIVIDE_FLOOR:
        p_k = 1.0 - total / comp_k
        for j, t in enumerate(tau):
            if j != k:
                comp = 1.0 - t
                if comp >= _DIVIDE_FLOOR:
                    x_c += t * (total / comp) / comp_k
                else:
                    x_c += t * _product_except(tau, (j,)) / comp_k
    else:
        p_k = 1.0 - _product_except(tau, (k,))
        for j, t in enumerate(tau):
            if j != k:
                x_c += t * _product_except(tau, (j, k))
    return 1.0 - p_k - x_c, x_c, p_k - 1.0, x_c, p_k - x_c, 1.0 - p_k


def linear_coeffs(tau: Sequence[float], node_index: int) -> LinearCoeffs:
    """Affine decomposition of the slot-state probabilities in tau_k.

    The coefficients depend only on the other nodes' access probabilities,
    so the decomposition holds for every value of tau_k in [0, 1].
    """
    return LinearCoeffs(*_affine(tau, node_index))
