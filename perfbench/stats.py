"""Latency statistics shared by the launcher and the benchmark's tests."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: The tail percentile must leave at least this many jobs beyond it.
TAIL_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[rank - 1]


def tail(latencies: Sequence[float]) -> Tuple[float, int, int]:
    """``(value, percentile, jobs beyond)`` of the highest whole percentile,
    at least the median, that leaves :data:`TAIL_BEYOND` jobs beyond it.

    With fewer than ``2 * TAIL_BEYOND`` jobs no such percentile exists; the
    median is returned with the count of jobs actually beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], percentile, n - rank
    rank = max(1, math.ceil(0.5 * n))
    return ordered[rank - 1], 50, n - rank


def median(latencies: Sequence[float]) -> float:
    return nearest_rank(sorted(latencies), 50)
