"""Figure 4 — greedy vs. naive even distribution, one shuffle.

Paper setting: 1000 clients, bots as in Figure 3, replicas ∈ {100, 200}.
Claim: even distribution is competitive only while the bot count is below
the replica count; once ``M`` exceeds ``P`` it saves almost nobody, while
the greedy planner degrades gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.api import plan
from .tables import render_table

__all__ = ["Fig4Row", "run_fig4", "render_fig4"]

FIG4_BOT_COUNTS: tuple[int, ...] = (50, 100, 200, 300, 400, 500)
FIG4_REPLICA_COUNTS: tuple[int, ...] = (100, 200)
FIG4_CLIENTS = 1000


@dataclass(frozen=True)
class Fig4Row:
    """One (P, M) cell of Figure 4."""

    n_replicas: int
    n_bots: int
    greedy_saved: float
    even_saved: float

    @property
    def n_benign(self) -> int:
        return FIG4_CLIENTS - self.n_bots

    @property
    def greedy_fraction(self) -> float:
        return self.greedy_saved / self.n_benign

    @property
    def even_fraction(self) -> float:
        return self.even_saved / self.n_benign


def run_fig4(
    n_clients: int = FIG4_CLIENTS,
    bot_counts: tuple[int, ...] = FIG4_BOT_COUNTS,
    replica_counts: tuple[int, ...] = FIG4_REPLICA_COUNTS,
) -> list[Fig4Row]:
    """Compute every Figure 4 data point."""
    rows = []
    for n_replicas in replica_counts:
        for n_bots in bot_counts:
            greedy = plan(n_clients, n_bots, n_replicas, "greedy")
            even = plan(n_clients, n_bots, n_replicas, "even")
            rows.append(
                Fig4Row(
                    n_replicas=n_replicas,
                    n_bots=n_bots,
                    greedy_saved=greedy.expected_saved,
                    even_saved=even.expected_saved,
                )
            )
    return rows


def render_fig4(rows: list[Fig4Row]) -> str:
    """ASCII rendition of Figure 4."""
    return render_table(
        [
            {
                "replicas": row.n_replicas,
                "bots": row.n_bots,
                "greedy %benign": 100 * row.greedy_fraction,
                "even %benign": 100 * row.even_fraction,
                "bots>replicas": row.n_bots > row.n_replicas,
            }
            for row in rows
        ],
        title=(
            "Figure 4 — greedy vs even distribution, one shuffle, "
            f"{FIG4_CLIENTS} clients (paper: even collapses once M > P)"
        ),
    )
