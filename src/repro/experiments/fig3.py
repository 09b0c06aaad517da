"""Figure 3 — greedy vs. optimal DP, benign clients saved in one shuffle.

Paper setting: 1000 clients, persistent bots ∈ {50, 100, 200, 300, 400,
500}, shuffling replicas ∈ {50, 100, 150, 200}.  The paper's observation is
that the greedy curves and the dynamic-programming curves *overlap* for all
parameter combinations.

The optimal value here is the static optimum from
:func:`repro.core.dp_fast.dp_fast_value` (see DESIGN.md §5.2 — the
paper-literal Algorithm 1 prices an adaptive relaxation and is
cross-checked separately at small N by the test suite and the Figure 5
driver).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.api import plan
from ..core.dp_fast import dp_fast_value
from .tables import render_table

__all__ = ["Fig3Row", "run_fig3", "FIG3_BOT_COUNTS", "FIG3_REPLICA_COUNTS"]

FIG3_BOT_COUNTS: tuple[int, ...] = (50, 100, 200, 300, 400, 500)
FIG3_REPLICA_COUNTS: tuple[int, ...] = (50, 100, 150, 200)
FIG3_CLIENTS = 1000


@dataclass(frozen=True)
class Fig3Row:
    """One (P, M) cell of Figure 3."""

    n_replicas: int
    n_bots: int
    greedy_saved: float
    optimal_saved: float

    @property
    def n_benign(self) -> int:
        return FIG3_CLIENTS - self.n_bots

    @property
    def greedy_fraction(self) -> float:
        """Greedy E(S) as a share of the benign population (the Y axis)."""
        return self.greedy_saved / self.n_benign

    @property
    def optimal_fraction(self) -> float:
        return self.optimal_saved / self.n_benign

    @property
    def gap(self) -> float:
        """Optimal minus greedy, in benign-fraction points."""
        return self.optimal_fraction - self.greedy_fraction


def run_fig3(
    n_clients: int = FIG3_CLIENTS,
    bot_counts: tuple[int, ...] = FIG3_BOT_COUNTS,
    replica_counts: tuple[int, ...] = FIG3_REPLICA_COUNTS,
) -> list[Fig3Row]:
    """Compute every Figure 3 data point."""
    rows = []
    for n_replicas in replica_counts:
        for n_bots in bot_counts:
            greedy = plan(n_clients, n_bots, n_replicas, "greedy")
            optimal = dp_fast_value(n_clients, n_bots, n_replicas)
            rows.append(
                Fig3Row(
                    n_replicas=n_replicas,
                    n_bots=n_bots,
                    greedy_saved=greedy.expected_saved,
                    optimal_saved=optimal,
                )
            )
    return rows


def render_fig3(rows: list[Fig3Row]) -> str:
    """ASCII rendition of Figure 3 with the paper's qualitative claim."""
    table = render_table(
        [
            {
                "replicas": row.n_replicas,
                "bots": row.n_bots,
                "greedy E(S)": row.greedy_saved,
                "optimal E(S)": row.optimal_saved,
                "greedy %benign": 100 * row.greedy_fraction,
                "optimal %benign": 100 * row.optimal_fraction,
                "gap (pts)": 100 * row.gap,
            }
            for row in rows
        ],
        title=(
            "Figure 3 — greedy vs optimal DP, one shuffle, "
            f"{FIG3_CLIENTS} clients (paper: curves overlap)"
        ),
    )
    worst_gap = max(row.gap for row in rows)
    return table + f"\n\nworst greedy-vs-optimal gap: {100 * worst_gap:.3f} points"
