"""Statistics helpers for repeated simulation runs.

The paper reports every simulated data point as a mean over repeated runs
(30 for the shuffling simulations, 40 for the MLE evaluation, 15 for the
prototype) with 95% or 99% confidence intervals.  This module reproduces
that reporting convention with Student-t intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["SampleSummary", "summarize", "confidence_interval"]


@dataclass(frozen=True)
class SampleSummary:
    """Mean and confidence half-width of a repeated-measurement sample.

    Attributes:
        mean: sample mean.
        half_width: confidence-interval half width around the mean (0 for a
            single observation).
        n: number of observations.
        confidence: confidence level the half width corresponds to.
        std: sample standard deviation (ddof=1; 0 for a single observation).
    """

    mean: float
    half_width: float
    n: int
    confidence: float
    std: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def format(self, precision: int = 2) -> str:
        """Render as ``mean ± half_width`` for experiment tables."""
        return f"{self.mean:.{precision}f} ± {self.half_width:.{precision}f}"


def summarize(
    values: Iterable[float] | Sequence[float] | np.ndarray,
    confidence: float = 0.99,
) -> SampleSummary:
    """Summarize repeated measurements with a Student-t interval.

    Args:
        values: the repeated observations (at least one).
        confidence: two-sided confidence level, e.g. 0.99 for the paper's
            simulation figures and 0.95 for the prototype figure.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence={confidence} must be in (0, 1)")
    mean = float(arr.mean())
    if arr.size == 1:
        return SampleSummary(
            mean=mean, half_width=0.0, n=1, confidence=confidence, std=0.0
        )
    std = float(arr.std(ddof=1))
    half = confidence_interval(std, arr.size, confidence)
    return SampleSummary(
        mean=mean,
        half_width=half,
        n=int(arr.size),
        confidence=confidence,
        std=std,
    )


def confidence_interval(std: float, n: int, confidence: float) -> float:
    """Student-t half width for a sample of ``n`` with deviation ``std``."""
    if n < 2:
        return 0.0
    # Reporting-only dependency: importing it here keeps scipy.stats
    # (~46 MB, ~0.9 s) out of the live service, which imports sim.
    from scipy import stats as scipy_stats

    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return t_crit * std / math.sqrt(n)
