"""Slot-state probabilities of slotted random access with per-node transmit probabilities.

Each node transmits independently in each slot with its own probability
tau_k; a slot is a success for node k when it is the only transmitter,
idle when nobody transmits, and a collision otherwise.

The slot-state kernel.  Every reader of the collision probability P^C, or
of its odds form v = prod(1 + x) - 1 - u (x = tau / (1 - tau), u = sum(x)),
takes it from _tau_states or _odds_states, which build it from sums and
products of non-negative terms only: written as 1 - P^S - P^I, or as a
product minus its first-order terms, it cancels (a relative error of 3e-6
on four nodes with every tau near 1e-6).
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


def _tau_states(tau: Sequence[float]) -> tuple[float, float, float, list[float]]:
    """(P^I, P^S, P^C, each), valid at tau = 1; each[k] = prod_{j != k}(1 - tau_j).

    Over the nodes seen so far, z, o and c are the probabilities of no, one
    and two or more transmitters; node k makes them z (1 - t), o (1 - t) + z t
    and c + t o.  each[k] is the product over the nodes before k times the
    product over those after it.
    """
    z, o, c = 1.0, 0.0, 0.0
    each = []
    for t in tau:
        each.append(z)
        w = 1.0 - t
        c += t * o
        o = o * w + z * t
        z *= w
    s = 1.0
    for k in range(len(tau) - 1, -1, -1):
        each[k] *= s
        s *= 1.0 - tau[k]
    return z, o, c, each


def _odds_states(x, others: bool = False) -> tuple:
    """(u, v, q, each) of odds x: sum(x), prod(1 + x) - 1 - u and q = prod(1 + x) - 1.

    Node k joins with v += x_k q and q += x_k (1 + q).  x holds floats, or
    is a 2-D array with one row per node, whose columns (the solver's
    batched probes) numpy's cumulative sums and products run at once, with
    1 + q taken as the running product prod_{j<k}(1 + x_j).  With others
    (floats only), each[k] = prod_{j != k}(1 + x_j) - 1 joins the q of the
    nodes before k with that of those after it, q_pre + q_suf + q_pre q_suf;
    each is None otherwise.
    """
    if hasattr(x, "ndim"):
        import numpy as np   # loaded by now, as an array was passed
        y = x.copy()
        y[1:] *= np.multiply.accumulate(1.0 + x[:-1], axis=0)
        q = np.add.accumulate(y, axis=0)   # q of the nodes up to each node
        return np.add.reduce(x, axis=0), np.add.reduce(x[1:] * q[:-1], axis=0), q[-1], None
    v = q = 0.0
    pre = []
    for xk in x:
        pre.append(q)
        v += xk * q
        q += xk * (1.0 + q)
    if not others:
        return sum(x), v, q, None
    s = 0.0   # q of the nodes after k, as pre[k] is of those before
    for k in range(len(pre) - 1, -1, -1):
        p = pre[k]
        pre[k] = p + s + p * s
        s += x[k] * (1.0 + s)
    return sum(x), v, q, pre


def state_probs(tau: Sequence[float]) -> StateProbs:
    """Success, collision and idle probabilities for one slot."""
    _validate(tau)
    _, _, p_collision, others = _tau_states(tau)
    per_node = tuple(map(operator.mul, tau, others))
    return StateProbs(
        per_node_success=per_node,
        p_success=sum(per_node),
        p_collision=p_collision,
        p_idle=others[0] * (1.0 - tau[0]),
    )
