"""Per-slot time and energy parameters of the success, collision and idle states.

A successful exchange carries the data frame plus an immediate ACK with
guard times and two propagation trips; a collision wastes the frame and
one guard; an idle slot is a fixed-length carrier-sense listen.  Each
node's slot costs at every payload are priced once, in eecap.network's
PayloadTable.
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
