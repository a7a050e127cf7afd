"""Per-slot time and energy costs of the success, collision and idle states.

A successful exchange carries the data frame plus an immediate ACK with
guard times and two propagation trips; a collision wastes the frame and
one guard; an idle slot is a fixed-length carrier-sense listen.
"""

from __future__ import annotations

from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0

# Acknowledgement frames always use the minimum payload size.
ACK_PAYLOAD_BITS = 126


@dataclass(frozen=True)
class TimingParams:
    """Header, guard and idle-slot times, shared by every node of a network."""

    t_shr: float = 40.32e-6        # synchronization header duration, seconds
    t_phr: float = 80.052e-6       # physical header duration, seconds
    t_psifs: float = 75e-6         # short interframe space, seconds
    t_idle_slot: float = 292e-6    # idle slot listen time, seconds

    def __post_init__(self) -> None:
        for name in ("t_shr", "t_phr", "t_psifs", "t_idle_slot"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class EnergyParams:
    """Energy cost coefficients, all in joules.

    eps_b/eps_oh/eps_st cover transmit plus receive work of a successful
    exchange per payload bit, per frame overhead, and per ACK; the _tx
    variants count only the transmitter-side share spent on a collision.
    """

    eps_b: float = 2.0e-9
    eps_oh: float = 4.0e-7
    eps_st: float = 2.0e-7
    eps_b_tx: float = 1.0e-9
    eps_oh_tx: float = 2.0e-7
    eps_st_tx: float = 1.0e-7

    def __post_init__(self) -> None:
        for name in ("eps_b", "eps_oh", "eps_st", "eps_b_tx", "eps_oh_tx", "eps_st_tx"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        for tx, total in (("eps_b_tx", "eps_b"), ("eps_oh_tx", "eps_oh"), ("eps_st_tx", "eps_st")):
            if getattr(self, tx) > getattr(self, total):
                raise ValueError(f"{tx} must not exceed {total}")


@dataclass(frozen=True)
class CostModel:
    """Per-state slot durations and energies for one node at one payload size.

    An idle slot only listens, so it lasts t_idle and costs no energy.
    """

    t_success: float
    t_collision: float
    t_idle: float
    e_success: float
    e_collision: float

    def __post_init__(self) -> None:
        if not self.t_success > self.t_collision > 0.0:
            raise ValueError("require t_success > t_collision > 0")
        if self.t_idle <= 0.0:
            raise ValueError("t_idle must be positive")
        if self.e_success < 0.0 or self.e_collision < 0.0:
            raise ValueError("state energies must be non-negative")


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
