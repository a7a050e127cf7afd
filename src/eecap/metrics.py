"""The feasibility stage's throughput-optimal payload rule.

_nt_opt picks, from the admissible payload grid, the size maximizing a
node's throughput N * p_cw^(N/n) / (to + tn*N) at fixed access
probabilities, where to and tn split the node's average slot duration into
its payload-independent part and its per-payload-bit slope.
eecap.solver.feasibility_stage calls it; every other answer of the package
is read from the network's PayloadTable.  The paper's scalar throughput,
efficiency and rate-threshold formulas are reference oracles of the test
suite, in tests/oracles.py.

This module must stay, even if the stage stops calling _nt_opt: the
benchmark's span tracer imports every layer module by name, this one
included.
"""

from __future__ import annotations

import math
from typing import Sequence


def _nt_opt(p_cw: float, to: float, tn: float, grid: Sequence[int], n: int) -> int:
    """Payload size from the grid maximizing the throughput N * p_cw^(N/n) / (to + tn*N).

    The throughput is log-concave in N, so the grid optimum is one of the
    two multiples of n adjacent to the continuous stationary point, found
    by direct comparison.  p_cw = 1 returns the largest admissible size;
    p_cw = 0 leaves throughput at zero for every size and returns the
    smallest one.
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
