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
