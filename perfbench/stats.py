"""Order statistics for the latency metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    beyond: int
    samples: int


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest nearest-rank percentile with at least `beyond` samples above it.

    Among N sorted samples the value at 1-based rank N - beyond has exactly
    `beyond` samples ranked above it, and 100 * (N - beyond) / N is the highest
    percentile whose nearest-rank value it is. With N <= beyond no percentile
    qualifies; the maximum is returned with percentile 100 and the true count
    above it (zero), so the shortfall is visible rather than hidden.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return Tail(ordered[-1], 100.0, 0, n)
    rank = n - beyond
    return Tail(ordered[rank - 1], 100.0 * rank / n, beyond, n)


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
