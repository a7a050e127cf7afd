"""Physical-layer error model for IEEE 802.15.6 IR-UWB links.

Models a non-coherent energy-detection receiver for on-off keyed pulse
bursts: bit errors feed a Kasami-sequence SHR detector, a shortened
Hamming PHR check, and BCH(63,51) codeword correction over the PSDU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALLOWED_NCPB = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class PhyConfig:
    """Static PHY layout: code parameters, header sizes and pulse timing.

    t_sym is the symbol period for a single pulse per burst (n_cpb = 1);
    links running n_cpb pulses per burst stretch it proportionally.
    """

    n: int = 63                  # BCH codeword length in bits
    k: int = 51                  # BCH payload bits per codeword
    t: int = 2                   # correctable errors per codeword
    n_phr: int = 40              # PHR length in bits
    t_phr: int = 2               # correctable errors in the PHR
    kasami_len: int = 63         # SHR Kasami sequence length
    rho: int = 6                 # tolerated chip errors per Kasami word
    preamble_reps: int = 4       # Kasami repetitions in the preamble
    t_sym: float = 6.4096e-8     # base symbol period, seconds
    t_p: float = 2.003e-9        # pulse width, seconds
    w_rx: float = 499.2e6        # receiver bandwidth, Hz
    n_t_min: int = 126           # smallest admissible PSDU size, bits
    n_t_max: int = 2646          # largest admissible PSDU size, bits

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n:
            raise ValueError(f"require 0 < k < n, got k={self.k}, n={self.n}")
        if self.t < 0 or self.t > self.n:
            raise ValueError(f"t must lie in [0, n], got t={self.t}")
        if self.t_phr < 0 or self.t_phr > self.n_phr:
            raise ValueError(f"t_phr must lie in [0, n_phr], got {self.t_phr}")
        if self.rho < 0 or self.rho > self.kasami_len:
            raise ValueError(f"rho must lie in [0, kasami_len], got {self.rho}")
        if self.preamble_reps < 1:
            raise ValueError("preamble_reps must be at least 1")
        for name in ("t_sym", "t_p"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.w_rx <= 0.0:
            raise ValueError("w_rx must be positive")
        if self.n_t_min % self.n or self.n_t_max % self.n:
            raise ValueError("n_t_min and n_t_max must be multiples of n")
        if not 0 < self.n_t_min <= self.n_t_max:
            raise ValueError("require 0 < n_t_min <= n_t_max")

    def nt_grid(self) -> range:
        """Admissible payload sizes: every multiple of n in [n_t_min, n_t_max]."""
        return range(self.n_t_min, self.n_t_max + 1, self.n)


@dataclass(frozen=True, slots=True)
class LinkBudget:
    """Received-signal description of one node-to-hub link."""

    h: float             # channel power coefficient
    eb_over_n0: float    # burst energy over noise density, dimensionless
    n_cpb: int           # pulses per burst
    t_int: float         # integration interval, seconds

    def __post_init__(self) -> None:
        if self.h < 0.0:
            raise ValueError("h must be non-negative")
        if self.eb_over_n0 < 0.0:
            raise ValueError("eb_over_n0 must be non-negative")
        if self.n_cpb not in ALLOWED_NCPB:
            raise ValueError(f"n_cpb must be one of {ALLOWED_NCPB}, got {self.n_cpb}")
        if self.t_int <= 0.0:
            raise ValueError("t_int must be positive")


@dataclass(frozen=True, slots=True)
class SegmentProbs:
    """Per-frame-segment success probabilities at a fixed bit error rate."""

    p_shr: float
    p_phr: float
    p_cw: float


def _q(x: float) -> float:
    """Gaussian tail probability via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _binomial_tail(n_bits: int, t_max: int, p: float) -> float:
    """P(at most t_max errors among n_bits i.i.d. bits flipping with prob p).

    Terms are assembled in log space and compensated-summed so the tail
    stays accurate when p is very small or very close to 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit error probability must lie in [0, 1], got {p}")
    if t_max >= n_bits:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    log_p = math.log(p)
    log_1mp = math.log1p(-p)
    terms = []
    for i in range(t_max + 1):
        log_term = math.lgamma(n_bits + 1) - math.lgamma(i + 1) - math.lgamma(n_bits - i + 1)
        log_term += i * log_p + (n_bits - i) * log_1mp
        terms.append(math.exp(log_term))
    return min(math.fsum(terms), 1.0)


def bit_error_prob(link: LinkBudget, phy: PhyConfig) -> float:
    """Burst error probability of the energy-detection receiver."""
    snr = link.h * link.eb_over_n0
    if snr == 0.0:
        return 0.5
    noise = snr + link.n_cpb * link.t_int * phy.w_rx
    return _q(math.sqrt(0.5 * snr * snr / noise))


def kasami_success_prob(p_b: float, phy: PhyConfig) -> float:
    """Detection probability of one Kasami word with up to rho chip errors."""
    return _binomial_tail(phy.kasami_len, phy.rho, p_b)


def shr_success_prob(p_b: float, phy: PhyConfig) -> float:
    """SHR success: preamble acquisition over repeated Kasami words times SFD match."""
    p_kasami = kasami_success_prob(p_b, phy)
    p_preamble = 1.0 - (1.0 - p_kasami) ** phy.preamble_reps
    return p_preamble * p_kasami


def phr_success_prob(p_b: float, phy: PhyConfig) -> float:
    """PHR success with up to t_phr correctable bit errors."""
    return _binomial_tail(phy.n_phr, phy.t_phr, p_b)


def codeword_success_prob(p_b: float, phy: PhyConfig) -> float:
    """Success probability of one BCH(n, k) codeword with t correctable errors."""
    return _binomial_tail(phy.n, phy.t, p_b)


def segment_probs(p_b: float, phy: PhyConfig) -> SegmentProbs:
    """Bundle the payload-size-independent segment probabilities for one link."""
    return SegmentProbs(
        p_shr=shr_success_prob(p_b, phy),
        p_phr=phr_success_prob(p_b, phy),
        p_cw=codeword_success_prob(p_b, phy),
    )
