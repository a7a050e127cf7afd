"""Distance-dependent link budget: log-distance path loss and burst-length table.

The pulse energy budget is fixed at the transmitter, so the burst energy
grows with the number of pulses per burst; longer links trade symbol rate
for that processing gain through the distance-indexed n_cpb table.  A
link at distance d reaches the hub with the burst SNR

    snr = tx_eb_over_n0_at_d0 (d0 / d)^exponent n_cpb(d) / n_cpb(d0),

the one number of the channel that the PHY error model reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .phy import ALLOWED_NCPB, LinkBudget, PhyConfig


@dataclass(frozen=True)
class ChannelParams:
    """Deterministic log-distance path loss model."""

    d0: float = 1.0                       # reference distance, meters
    exponent: float = 3.3                 # path loss exponent
    tx_eb_over_n0_at_d0: float = 5530.0   # burst SNR at d0, dimensionless

    def __post_init__(self) -> None:
        for name in ("d0", "exponent", "tx_eb_over_n0_at_d0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.d0 <= 0.0:
            raise ValueError("d0 must be positive")
        if self.exponent < 0.0:
            raise ValueError("exponent must be non-negative")
        if self.tx_eb_over_n0_at_d0 < 0.0:
            raise ValueError("tx_eb_over_n0_at_d0 must be non-negative")


@dataclass(frozen=True)
class NcpbTable:
    """Distance-indexed pulses-per-burst selection.

    entries are (upper_bound_distance, n_cpb) pairs; a link of distance d
    uses the first entry with d <= upper_bound_distance.
    """

    entries: tuple[tuple[float, int], ...] = field(
        default=((2.0, 1), (4.0, 2), (6.0, 4), (8.0, 8), (9.0, 16), (10.0, 32))
    )

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("ncpb table must not be empty")
        prev_bound = 0.0
        prev_ncpb = 0
        for bound, n_cpb in self.entries:
            if bound <= prev_bound:
                raise ValueError("ncpb table distance bounds must be strictly increasing")
            if n_cpb not in ALLOWED_NCPB:
                raise ValueError(f"n_cpb must be one of {ALLOWED_NCPB}, got {n_cpb}")
            if n_cpb < prev_ncpb:
                raise ValueError("n_cpb must be non-decreasing with distance")
            prev_bound, prev_ncpb = bound, n_cpb

    def lookup(self, d: float) -> int:
        """Pulses per burst for a link of distance d."""
        if d <= 0.0:
            raise ValueError("distance must be positive")
        for bound, n_cpb in self.entries:
            if d <= bound:
                return n_cpb
        raise ValueError(f"link out of supported range: d={d} exceeds {self.entries[-1][0]}")


def link_budget(d: float, ch: ChannelParams, tbl: NcpbTable, phy: PhyConfig) -> LinkBudget:
    """Link budget of a node at distance d, with the burst SNR of the module docstring.

    An SNR beyond the floats is infinite: such a link makes no bit errors.
    A zero tx_eb_over_n0_at_d0 gives SNR 0 at every distance.
    """
    n_cpb = tbl.lookup(d)
    n_cpb_ref = tbl.lookup(ch.d0)
    try:
        path = (ch.d0 / d) ** ch.exponent
    except OverflowError:   # float ** raises where float * returns inf
        path = math.inf
    snr = 0.0   # not 0 * inf = NaN, however short the link
    if ch.tx_eb_over_n0_at_d0 > 0.0:
        snr = ch.tx_eb_over_n0_at_d0 * path * (n_cpb / n_cpb_ref)
    return LinkBudget(snr=snr, n_cpb=n_cpb, t_int=n_cpb * phy.t_p)
