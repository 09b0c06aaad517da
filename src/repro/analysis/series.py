"""Digitized reference points from the paper's figures + shape comparison.

The paper publishes curves, not tables; the values below are read off the
figures to the precision the plots allow (±5-10%).  They exist so that
benchmarks and EXPERIMENTS.md can compare *shapes* — orderings, growth
factors, crossovers — rather than eyeballing.  Where a figure's exact
values are unreadable, only the qualitative anchors the text states are
included.

Use :func:`shape_correlation` (Spearman rank correlation) to check that a
measured series rises and falls where the paper's does, and
:func:`growth_factor` for end-to-end ratios.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "PAPER_FIG3_SAVED_FRACTION",
    "PAPER_FIG8_SHUFFLES",
    "PAPER_FIG9_SHUFFLES",
    "PAPER_FIG12_TOTAL_SECONDS",
    "PAPER_HEADLINE_SHUFFLES",
    "shape_correlation",
    "growth_factor",
]

# Figure 3 (also the closed form — these are exact, computed from
# Equation 1, since the optimal curves are analytic): fraction of benign
# clients saved in one shuffle at N=1000, keyed by (P, M).
PAPER_FIG3_SAVED_FRACTION: Mapping[tuple[int, int], float] = {
    (50, 50): 0.374, (50, 100): 0.189, (50, 200): 0.100,
    (50, 300): 0.072, (50, 400): 0.059, (50, 500): 0.049,
    (100, 50): 0.629, (100, 100): 0.385, (100, 200): 0.202,
    (100, 300): 0.145, (100, 400): 0.119, (100, 500): 0.099,
    (150, 50): 0.746, (150, 100): 0.548, (150, 200): 0.305,
    (150, 300): 0.219, (150, 400): 0.179, (150, 500): 0.149,
    (200, 50): 0.814, (200, 100): 0.655, (200, 200): 0.409,
    (200, 300): 0.292, (200, 400): 0.239, (200, 500): 0.199,
}

# Figure 8, read off the plot: shuffles to reach the saving target with
# P = 1000, keyed by (benign, target, bots).  The paper's axis tops out
# around 150; the 50K/95% curve ends near it.
PAPER_FIG8_SHUFFLES: Mapping[tuple[int, float, int], float] = {
    (10_000, 0.80, 10_000): 20.0,
    (10_000, 0.80, 100_000): 40.0,
    (10_000, 0.95, 10_000): 30.0,
    (10_000, 0.95, 100_000): 75.0,
    (50_000, 0.80, 10_000): 30.0,
    (50_000, 0.80, 100_000): 60.0,
    (50_000, 0.95, 10_000): 55.0,
    (50_000, 0.95, 100_000): 145.0,
}

# Figure 9, read off the plot: shuffles vs shuffling replicas with 10^5
# bots, keyed by (benign, target, replicas).
PAPER_FIG9_SHUFFLES: Mapping[tuple[int, float, int], float] = {
    (10_000, 0.80, 900): 40.0,
    (10_000, 0.80, 2000): 10.0,
    (10_000, 0.95, 900): 75.0,
    (10_000, 0.95, 2000): 25.0,
    (50_000, 0.80, 900): 70.0,
    (50_000, 0.80, 2000): 20.0,
    (50_000, 0.95, 900): 150.0,
    (50_000, 0.95, 2000): 45.0,
}

# Figure 12, read off the plot: time for all clients to migrate (upper
# curve), keyed by client count.  Paper text: < 5 s at 60 clients.
PAPER_FIG12_TOTAL_SECONDS: Mapping[int, float] = {
    10: 1.5, 20: 2.2, 30: 2.8, 40: 3.4, 50: 4.2, 60: 4.8,
}

PAPER_HEADLINE_SHUFFLES = 60.0


def shape_correlation(
    paper: Sequence[float], measured: Sequence[float]
) -> float:
    """Spearman rank correlation between paper and measured series.

    1.0 means the measured series rises and falls exactly where the
    paper's does — the reproduction criterion for curve shapes.  Requires
    at least three points; constant series are rejected (no rank order to
    compare).
    """
    if len(paper) != len(measured):
        raise ValueError(
            f"series lengths differ: {len(paper)} vs {len(measured)}"
        )
    if len(paper) < 3:
        raise ValueError("need at least 3 points for a shape comparison")
    if len(set(paper)) == 1 or len(set(measured)) == 1:
        raise ValueError("constant series have no shape to compare")
    # Reporting-only dependency: importing it here keeps scipy.stats
    # (~46 MB, ~0.9 s) out of the live service, which imports analysis.
    from scipy import stats as scipy_stats

    rho, _ = scipy_stats.spearmanr(np.asarray(paper), np.asarray(measured))
    return float(rho)


def growth_factor(series: Sequence[float]) -> float:
    """End-to-end ratio of a series (last / first).

    The quantity behind claims like "a ten-fold increase in bots results
    in less than a three-fold increase in shuffles".
    """
    if len(series) < 2:
        raise ValueError("need at least 2 points for a growth factor")
    if series[0] == 0:
        raise ValueError("first element is zero; growth factor undefined")
    return series[-1] / series[0]
