"""The three statistics the benchmark reports, free of any other import."""

from __future__ import annotations

import statistics


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             int(len(sorted_values) * q))]


def median(values: list[float]) -> float:
    return statistics.median(values)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
