"""Figure 6 — running time of the greedy algorithm.

Paper setting: 1000 clients, bots ∈ {50..500}, replicas ∈ {50, 100, 150,
200}; the greedy planner needs only a few milliseconds per plan — the
property that makes it the runtime algorithm for live shuffling decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.greedy import greedy_sizes
from .fig3 import FIG3_BOT_COUNTS, FIG3_CLIENTS, FIG3_REPLICA_COUNTS
from .tables import render_table

__all__ = ["Fig6Row", "run_fig6", "render_fig6"]


@dataclass(frozen=True)
class Fig6Row:
    """Wall-clock of one greedy invocation (best of ``repeats``)."""

    n_clients: int
    n_bots: int
    n_replicas: int
    seconds: float

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


def run_fig6(
    n_clients: int = FIG3_CLIENTS,
    bot_counts: tuple[int, ...] = FIG3_BOT_COUNTS,
    replica_counts: tuple[int, ...] = FIG3_REPLICA_COUNTS,
    repeats: int = 5,
) -> list[Fig6Row]:
    """Time the greedy planner across the Figure 3 grid."""
    rows = []
    for n_replicas in replica_counts:
        for n_bots in bot_counts:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                greedy_sizes(n_clients, n_bots, n_replicas)
                best = min(best, time.perf_counter() - start)
            rows.append(
                Fig6Row(
                    n_clients=n_clients,
                    n_bots=n_bots,
                    n_replicas=n_replicas,
                    seconds=best,
                )
            )
    return rows


def render_fig6(rows: list[Fig6Row]) -> str:
    """ASCII rendition of Figure 6."""
    table = render_table(
        [
            {
                "replicas": row.n_replicas,
                "bots": row.n_bots,
                "time (ms)": row.milliseconds,
            }
            for row in rows
        ],
        title=(
            "Figure 6 — greedy running time, 1000 clients "
            "(paper: 1-4 ms in Matlab)"
        ),
    )
    worst = max(row.milliseconds for row in rows)
    return table + f"\n\nworst-case greedy time: {worst:.2f} ms"
