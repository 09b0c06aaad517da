"""Figure 5 — running time of the (paper-literal) dynamic program.

The paper reports Matlab runtimes up to ~2.5 x 10^8 ms (tens of hours) for
1000 clients — which is precisely why the greedy algorithm exists.  Running
Algorithm 1 at N = 1000 inside a benchmark is therefore not feasible (nor
was it for the authors: they precomputed tables offline).  We reproduce the
figure's *message* two ways:

1. Measure Algorithm 1 wall-clock on a scaled-down grid (N <= ~120).
2. Fit the growth exponent across N and extrapolate to the paper's N = 1000
   to show the tens-of-hours order of magnitude.

The shape claims that survive scaling: runtime grows polynomially and
steeply in every parameter, and is larger for more replicas — the ordering
of the paper's four curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.dp import optimal_assign
from .tables import render_table

__all__ = ["Fig5Row", "run_fig5", "render_fig5", "fit_growth_exponent"]

FIG5_CLIENTS: tuple[int, ...] = (40, 60, 80, 100, 120)
FIG5_BOT_FRACTION = 0.2  # paper sweeps M at fixed N; we scale M with N
FIG5_REPLICA_COUNTS: tuple[int, ...] = (4, 8)


@dataclass(frozen=True)
class Fig5Row:
    """Wall-clock of one Algorithm 1 invocation."""

    n_clients: int
    n_bots: int
    n_replicas: int
    seconds: float

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


def run_fig5(
    client_counts: tuple[int, ...] = FIG5_CLIENTS,
    replica_counts: tuple[int, ...] = FIG5_REPLICA_COUNTS,
    bot_fraction: float = FIG5_BOT_FRACTION,
) -> list[Fig5Row]:
    """Time the literal Algorithm 1 across the scaled-down grid."""
    rows = []
    for n_replicas in replica_counts:
        for n_clients in client_counts:
            n_bots = max(1, int(round(bot_fraction * n_clients)))
            start = time.perf_counter()
            optimal_assign(n_clients, n_bots, n_replicas)
            elapsed = time.perf_counter() - start
            rows.append(
                Fig5Row(
                    n_clients=n_clients,
                    n_bots=n_bots,
                    n_replicas=n_replicas,
                    seconds=elapsed,
                )
            )
    return rows


def fit_growth_exponent(rows: list[Fig5Row]) -> float:
    """Least-squares slope of log(time) vs log(N) at the largest P.

    Because M scales with N in this grid, the fitted exponent folds the
    M-dependence in as well, matching how the paper's x-axis (bots) and
    figure text (clients) co-vary.
    """
    biggest_p = max(row.n_replicas for row in rows)
    pts = [(row.n_clients, row.seconds) for row in rows
           if row.n_replicas == biggest_p]
    if len(pts) < 2:
        raise ValueError("need at least two client counts to fit a slope")
    xs = np.log([p[0] for p in pts])
    ys = np.log([max(p[1], 1e-9) for p in pts])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def extrapolate_to(rows: list[Fig5Row], n_clients: int) -> float:
    """Predicted seconds at ``n_clients`` from the fitted power law."""
    exponent = fit_growth_exponent(rows)
    biggest_p = max(row.n_replicas for row in rows)
    anchor = max(
        (row for row in rows if row.n_replicas == biggest_p),
        key=lambda row: row.n_clients,
    )
    return anchor.seconds * (n_clients / anchor.n_clients) ** exponent


def render_fig5(rows: list[Fig5Row]) -> str:
    """ASCII rendition of Figure 5's message."""
    table = render_table(
        [
            {
                "clients": row.n_clients,
                "bots": row.n_bots,
                "replicas": row.n_replicas,
                "time (ms)": row.milliseconds,
            }
            for row in rows
        ],
        title=(
            "Figure 5 — Algorithm 1 (literal DP) running time, scaled-down "
            "grid (paper: ~10^8 ms at N=1000 in Matlab)"
        ),
    )
    exponent = fit_growth_exponent(rows)
    projected = extrapolate_to(rows, 1000)
    return table + (
        f"\n\nfitted growth exponent (log-time vs log-N): {exponent:.2f}"
        f"\nextrapolated runtime at N=1000: {projected:,.0f} s"
        f" (~{projected / 3600:.1f} h; paper reports tens of hours)"
    )
