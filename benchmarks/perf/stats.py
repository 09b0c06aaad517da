"""Sample statistics: medians, quartile spread, supported percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["MIN_BEYOND", "median", "percentile", "spread", "supported"]

#: A percentile is reported only with at least this many samples
#: beyond it; below that the value is one or two outliers, not a tail.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave >= MIN_BEYOND beyond the q-th percentile."""
    return math.floor(n * (1.0 - q / 100.0)) >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or ``None`` when unsupported."""
    n = len(samples)
    if not supported(n, q):
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(n * q / 100.0))
    return float(ordered[rank - 1])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values).

    The same rule the benchmark contract applies to ten seeded runs:
    ``statistics.quantiles(values, n=4)``, third minus first quartile,
    over the median.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
