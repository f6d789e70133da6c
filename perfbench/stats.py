"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(list(values)))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
