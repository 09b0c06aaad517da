"""Figure 9 — shuffles to save 80% / 95% of benign vs. replica count.

Paper setting: 10^5 persistent bots; benign populations 10K and 50K;
shuffling replicas sweep 900..2000; 30 repetitions, 99% CI.  Claim: the
shuffle count *drops steadily* as replica servers are added — the paper's
argument that cloud elasticity buys mitigation speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.scenarios import (
    FIG8_BENIGN_COUNTS,
    FIG9_REPLICA_COUNTS,
    fig9_scenarios,
)
from ..sim.shuffle_sim import ScenarioResult
from ..sim.stats import SampleSummary
from ..sim.sweep import run_scenario_grid
from .tables import render_table

__all__ = ["Fig9Row", "run_fig9", "render_fig9"]


@dataclass(frozen=True)
class Fig9Row:
    """One Figure 9 data point."""

    benign: int
    n_replicas: int
    target: float
    shuffles: SampleSummary
    result: ScenarioResult


def run_fig9(
    replica_counts: tuple[int, ...] = FIG9_REPLICA_COUNTS,
    benign_counts: tuple[int, ...] = FIG8_BENIGN_COUNTS,
    targets: tuple[float, ...] = (0.8, 0.95),
    repetitions: int = 30,
    seed: int = 0,
    jobs: int = 1,
) -> list[Fig9Row]:
    """Run the Figure 9 grid (``jobs`` fans out; numbers are identical
    to the serial run for any job count)."""
    results = run_scenario_grid(
        fig9_scenarios(replica_counts, benign_counts, targets),
        repetitions=repetitions,
        seed=seed,
        workers=jobs,
    )
    return [
        Fig9Row(
            benign=result.scenario.benign,
            n_replicas=result.scenario.n_replicas,
            target=result.scenario.target_fraction,
            shuffles=result.shuffles,
            result=result,
        )
        for result in results
    ]


def render_fig9(rows: list[Fig9Row]) -> str:
    """ASCII rendition of Figure 9."""
    return render_table(
        [
            {
                "benign": row.benign,
                "target": f"{row.target:.0%}",
                "replicas": row.n_replicas,
                "shuffles": row.shuffles.format(1),
            }
            for row in rows
        ],
        title=(
            "Figure 9 — shuffles vs shuffling-replica count, 100K bots "
            "(paper: adding replicas steadily reduces shuffles)"
        ),
    )


def chart_fig9(rows: list[Fig9Row]) -> str:
    """ASCII line chart of the four Figure 9 curves."""
    from .plots import Series, ascii_chart

    series = []
    for benign in sorted({row.benign for row in rows}):
        for target in sorted({row.target for row in rows}):
            pts = [
                (row.n_replicas, row.shuffles.mean)
                for row in rows
                if row.benign == benign and row.target == target
            ]
            if len(pts) >= 2:
                series.append(
                    Series(
                        f"{benign // 1000}K/{target:.0%}",
                        [p[0] for p in pts],
                        [p[1] for p in pts],
                    )
                )
    return ascii_chart(
        series,
        title="Figure 9 — shuffles vs shuffling replicas (100K bots)",
        x_label="shuffling replicas",
        y_label="shuffles",
    )
