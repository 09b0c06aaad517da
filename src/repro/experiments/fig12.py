"""Figure 12 — client migration time between two replica servers.

Paper setting: up to 60 PlanetLab Firefox clients on a 246 KB page served
from EC2; 15 repetitions per point, 95% confidence intervals.  Reported
results: all 60 clients re-assigned in < 5 s; per-client mean between
~1 and ~2.5 s; both curves grow with the client count, the total far
faster than the mean (single-threaded serialized pushes).

This driver runs the calibrated emulation in
:mod:`repro.cloudsim.migration` (see DESIGN.md §5.3 for the substitution
rationale).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cloudsim.migration import MigrationModel, simulate_migration
from ..sim.stats import SampleSummary, summarize
from .tables import render_table

__all__ = ["Fig12Row", "run_fig12", "render_fig12", "FIG12_CLIENT_COUNTS"]

FIG12_CLIENT_COUNTS: tuple[int, ...] = (10, 20, 30, 40, 50, 60)
FIG12_REPEATS = 15


@dataclass(frozen=True)
class Fig12Row:
    """One Figure 12 data point (both curves)."""

    n_clients: int
    total_time: SampleSummary  # upper curve: all clients migrated
    per_client: SampleSummary  # lower curve: mean per-client time


def run_fig12(
    client_counts: tuple[int, ...] = FIG12_CLIENT_COUNTS,
    repetitions: int = FIG12_REPEATS,
    seed: int = 0,
    model: MigrationModel | None = None,
) -> list[Fig12Row]:
    """Measure migration time for each client count."""
    rows = []
    for index, n_clients in enumerate(client_counts):
        samples = simulate_migration(
            n_clients, repetitions=repetitions, seed=seed + index,
            model=model,
        )
        rows.append(
            Fig12Row(
                n_clients=n_clients,
                total_time=summarize(
                    [s.total_time for s in samples], confidence=0.95
                ),
                per_client=summarize(
                    [s.per_client_mean for s in samples], confidence=0.95
                ),
            )
        )
    return rows


def render_fig12(rows: list[Fig12Row]) -> str:
    """ASCII rendition of Figure 12."""
    table = render_table(
        [
            {
                "clients": row.n_clients,
                "all clients (s)": row.total_time.format(2),
                "per client (s)": row.per_client.format(2),
            }
            for row in rows
        ],
        title=(
            "Figure 12 — client migration time between two replicas "
            "(paper: 60 clients in < 5 s; per-client ~1-2.5 s)"
        ),
    )
    last = rows[-1]
    return table + (
        f"\n\nat {last.n_clients} clients: total {last.total_time.mean:.2f} s"
        f" (paper: < 5 s), per-client {last.per_client.mean:.2f} s"
    )


def chart_fig12(rows: list[Fig12Row]) -> str:
    """ASCII line chart of both Figure 12 curves."""
    from .plots import Series, ascii_chart

    counts = [row.n_clients for row in rows]
    return ascii_chart(
        [
            Series("all clients",
                   counts, [row.total_time.mean for row in rows]),
            Series("per client",
                   counts, [row.per_client.mean for row in rows]),
        ],
        title="Figure 12 — client migration time",
        x_label="concurrent clients",
        y_label="seconds",
    )
