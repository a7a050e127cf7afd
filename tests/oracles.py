"""Scalar reference oracles of the paper's formulas, used only by the tests.

No solve, sweep or validate runs these: the package computes every answer
from a network's PayloadTable and the slot-state kernel of eecap.access.
The tests check those against the formulas here, one node and one payload
at a time.

- Per-node throughput and energy efficiency.  Both share the numerator
  N_T * P_k^S * P_frame (payload bits that arrive intact per slot); energy
  efficiency divides by the average energy a slot costs, throughput by
  its average duration.  Holding the other nodes fixed, numerator and
  denominator are affine in the node's own access probability
  (linear_coeffs), which yields closed forms for the smallest tau meeting
  a rate target and for the payload size maximizing throughput.
- The PSDU and whole-frame delivery probabilities, and the codeword count
  of a MAC frame body.
- A node's per-state slot costs at one payload (cost_model, with
  ppdu_duration and ack_duration), which the package prices only in its
  PayloadTable.

These hold for any positive multiple of the codeword length n: they take
such a payload size even off the admissible grid [n_t_min, n_t_max] of a
PhyConfig.  That grid is a PHY policy, enforced where a network is
evaluated (evaluate, simulate, the solver and the scenario loader).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from eecap.access import StateProbs, _validate, state_probs
from eecap.costs import ACK_PAYLOAD_BITS, CostModel, EnergyParams, TimingParams
from eecap.phy import (PhyConfig, SegmentProbs, codeword_success_prob, phr_success_prob,
                       shr_success_prob)


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


def psdu_success_prob(p_b: float, n_t: int, phy: PhyConfig) -> float:
    """PSDU success: all n_t / n codewords decode."""
    if n_t <= 0 or n_t % phy.n:
        raise ValueError(f"n_t must be a positive multiple of n={phy.n}, got {n_t}")
    return codeword_success_prob(p_b, phy) ** (n_t // phy.n)


def ppdu_success_prob(p_b: float, n_t: int, phy: PhyConfig) -> float:
    """Whole-frame delivery probability: SHR, PHR and PSDU all succeed."""
    return (
        shr_success_prob(p_b, phy)
        * phr_success_prob(p_b, phy)
        * psdu_success_prob(p_b, n_t, phy)
    )


def codewords_for_payload(n_mac_body: int, phy: PhyConfig) -> tuple[int, int]:
    """Codeword count and padded PSDU size for a MAC frame body of n_mac_body octets.

    The PSDU carries 8 * n_mac_body payload bits plus 72 bits of MAC header
    and FCS, split into 51-bit groups each protected by one n-bit codeword
    (BCH(63,51)).
    """
    if n_mac_body < 0:
        raise ValueError("n_mac_body must be non-negative")
    if n_mac_body > 255:
        raise ValueError("n_mac_body must not exceed 255 octets")
    n_cw = -(-(8 * n_mac_body + 72) // 51)
    return n_cw, n_cw * phy.n


def ppdu_duration(n_t: int, t_sym: float, tp: TimingParams) -> float:
    """On-air time of a frame with an n_t-bit payload at symbol period t_sym."""
    if n_t < 0:
        raise ValueError("n_t must be non-negative")
    return tp.t_shr + tp.t_phr + n_t * t_sym


def ack_duration(t_sym: float, tp: TimingParams) -> float:
    """On-air time of the fixed minimum-size acknowledgement frame."""
    return ppdu_duration(ACK_PAYLOAD_BITS, t_sym, tp)


def cost_model(n_t: int, t_sym: float, sigma: float, tp: TimingParams,
               ep: EnergyParams) -> CostModel:
    """Per-state cost model of a node with symbol period t_sym and propagation delay sigma."""
    t_frame = ppdu_duration(n_t, t_sym, tp)
    t_success = t_frame + ack_duration(t_sym, tp) + 2.0 * tp.t_psifs + 2.0 * sigma
    t_collision = t_frame + tp.t_psifs + sigma
    e_success = ep.eps_b * n_t + ep.eps_oh + ep.eps_st
    e_collision = ep.eps_b_tx * n_t + ep.eps_oh_tx + ep.eps_st_tx
    return CostModel(
        t_success=t_success,
        t_collision=t_collision,
        t_idle=tp.t_idle_slot,
        e_success=e_success,
        e_collision=e_collision,
    )


@dataclass(frozen=True)
class Node:
    """One sensor node's link distance, access probability and traffic demand."""

    index: int
    d: float            # distance to the hub, meters
    tau: float          # channel access probability
    n_t: int            # payload frame size, bits
    r_min: float        # minimum required throughput, bits per second

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if self.d <= 0.0:
            raise ValueError("d must be positive")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau={self.tau} outside [0, 1]")
        if self.n_t <= 0:
            raise ValueError("n_t must be positive")
        if self.r_min < 0.0:
            raise ValueError("r_min must be non-negative")


@dataclass(frozen=True)
class AggregateTerms:
    """Affine pieces of one node's average slot duration.

    xt and yt are the slope and intercept of the duration in the node's own
    tau at fixed payload size; to and tn split the same duration into its
    payload-independent part and its per-payload-bit slope at fixed tau.
    """

    xt: float
    yt: float
    to: float
    tn: float


def _check_payload(n_t: int, n: int) -> None:
    """Raise ValueError unless n_t is a positive multiple of n; the grid bounds are not checked."""
    if n_t <= 0 or n_t % n != 0:
        raise ValueError(f"n_t must be a positive multiple of n={n}, got {n_t}")


def frame_success_prob(seg: SegmentProbs, n_t: int, n: int = 63) -> float:
    """Probability that a whole frame with an n_t-bit payload decodes."""
    _check_payload(n_t, n)
    return seg.p_shr * seg.p_phr * seg.p_cw ** (n_t // n)


def aggregate_terms(tau: Sequence[float], node_index: int, cost: CostModel,
                    n_t: int, t_sym: float) -> AggregateTerms:
    """Both affine decompositions of node node_index's average slot duration."""
    lc = linear_coeffs(tau, node_index)
    xt = lc.x_s * cost.t_success + lc.x_c * cost.t_collision + lc.x_i * cost.t_idle
    yt = lc.y_s * cost.t_success + lc.y_c * cost.t_collision + lc.y_i * cost.t_idle
    net = state_probs(tau)
    cs0 = cost.t_success - n_t * t_sym
    cc0 = cost.t_collision - n_t * t_sym
    to = net.p_success * cs0 + net.p_collision * cc0 + net.p_idle * cost.t_idle
    tn = (net.p_success + net.p_collision) * t_sym
    return AggregateTerms(xt=xt, yt=yt, to=to, tn=tn)


def energy_efficiency(node: Node, net: StateProbs, cost: CostModel,
                      seg: SegmentProbs, n: int = 63) -> float:
    """Payload bits delivered per joule spent, network-wide energy in the denominator."""
    p_frame = frame_success_prob(seg, node.n_t, n)
    num = node.n_t * net.per_node_success[node.index] * p_frame
    den = net.p_success * cost.e_success + net.p_collision * cost.e_collision
    if den <= 0.0:
        raise ValueError("efficiency undefined at zero activity")
    return num / den


def throughput(node: Node, net: StateProbs, cost: CostModel,
               seg: SegmentProbs, n: int = 63) -> float:
    """Payload bits delivered per second, network-wide slot duration in the denominator."""
    p_frame = frame_success_prob(seg, node.n_t, n)
    num = node.n_t * net.per_node_success[node.index] * p_frame
    den = (net.p_success * cost.t_success
           + net.p_collision * cost.t_collision
           + net.p_idle * cost.t_idle)
    return num / den


def throughput_derivative_tau(node: Node, tau: Sequence[float], cost: CostModel,
                              seg: SegmentProbs, n: int = 63) -> float:
    """Closed-form partial derivative of the node's throughput in its own tau.

    With the affine decompositions R = c*tau / (xt*tau + yt), the derivative
    is c*yt / (xt*tau + yt)^2, which is non-negative because yt >= 0.
    """
    lc = linear_coeffs(tau, node.index)
    xt = lc.x_s * cost.t_success + lc.x_c * cost.t_collision + lc.x_i * cost.t_idle
    yt = lc.y_s * cost.t_success + lc.y_c * cost.t_collision + lc.y_i * cost.t_idle
    c = node.n_t * lc.y_i * frame_success_prob(seg, node.n_t, n)
    den = xt * tau[node.index] + yt
    if den <= 0.0:
        raise ValueError("throughput derivative undefined: zero average duration")
    return c * yt / (den * den)


def tau_min_for_rate(node: Node, tau: Sequence[float], cost: CostModel,
                     seg: SegmentProbs, n: int = 63) -> Optional[float]:
    """Smallest access probability meeting the node's rate requirement.

    Returns None when no tau in [0, 1) reaches r_min with the other nodes'
    access probabilities held fixed.  r_min = 0 returns 0.0.
    """
    if node.r_min == 0.0:
        return 0.0
    lc = linear_coeffs(tau, node.index)
    xt = lc.x_s * cost.t_success + lc.x_c * cost.t_collision + lc.x_i * cost.t_idle
    yt = lc.y_s * cost.t_success + lc.y_c * cost.t_collision + lc.y_i * cost.t_idle
    c = node.n_t * lc.y_i * frame_success_prob(seg, node.n_t, n)
    denom = c - node.r_min * xt
    if denom <= 0.0:
        return None
    t = node.r_min * yt / denom
    if t >= 1.0:
        return None
    return t


def nt_opt_for_throughput(p_cw: float, terms: AggregateTerms,
                          grid: Sequence[int], n: int = 63) -> int:
    """Payload size from the admissible grid maximizing the node's throughput.

    The throughput as a function of payload size N is
    N * p_cw^(N/n) / (to + tn*N), log-concave in N, so the grid optimum is
    one of the two multiples of n adjacent to the continuous stationary
    point, found by direct comparison, ties to the smaller one.  p_cw = 1
    returns the largest admissible size; p_cw = 0 leaves throughput at zero
    for every size and returns the smallest one.  The feasibility stage
    takes the same optimum by a row argmax on the payload table
    (eecap.solver).
    """
    if not 0.0 <= p_cw <= 1.0:
        raise ValueError(f"p_cw must lie in [0, 1], got {p_cw}")
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    n_min, n_max = grid[0], grid[-1]
    if p_cw == 0.0:
        return n_min
    if p_cw == 1.0:
        return n_max
    to, tn = terms.to, terms.tn
    b = -math.log(p_cw) / n
    if tn <= 0.0:
        n_cont = 1.0 / b
    else:
        # Stationary point of log throughput: b*tn*N^2 + b*to*N - to = 0.
        disc = (b * to) ** 2 + 4.0 * b * tn * to
        n_cont = (-b * to + math.sqrt(disc)) / (2.0 * b * tn)
    n_cont = min(max(n_cont, float(n_min)), float(n_max))
    lo = min(int((n_cont - n_min) // n), len(grid) - 1)
    hi = min(lo + 1, len(grid) - 1)

    def gain(n_t: int) -> float:
        return n_t * p_cw ** (n_t // n) / (to + tn * n_t)

    if gain(grid[hi]) > gain(grid[lo]):
        return grid[hi]
    return grid[lo]
