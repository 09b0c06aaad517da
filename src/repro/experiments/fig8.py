"""Figure 8 — shuffles to save 80% / 95% of benign clients vs. bot count.

Paper setting: 1000 shuffling replicas; benign populations 10K and 50K;
persistent bots 1..10 x 10^4 arriving in a Poisson process (5000 per 3
shuffles) with benign churn (100 per 3 shuffles); 30 repetitions, 99% CI.

Paper claims to verify:

- shuffle count rises *slowly* with the bot population — a ten-fold bot
  increase costs less than a three-fold shuffle increase;
- more benign clients need more shuffles;
- the 95% target costs substantially (>40%) more shuffles than 80%.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.scenarios import FIG8_BENIGN_COUNTS, FIG8_BOT_COUNTS
from ..sim.shuffle_sim import ScenarioResult, ShuffleScenario
from ..sim.stats import SampleSummary
from ..sim.sweep import run_scenario_grid
from .tables import render_table

__all__ = ["Fig8Row", "run_fig8", "render_fig8"]


@dataclass(frozen=True)
class Fig8Row:
    """One Figure 8 data point: shuffles needed for one curve at one x."""

    benign: int
    bots: int
    target: float
    shuffles: SampleSummary
    result: ScenarioResult


def run_fig8(
    bot_counts: tuple[int, ...] = FIG8_BOT_COUNTS,
    benign_counts: tuple[int, ...] = FIG8_BENIGN_COUNTS,
    targets: tuple[float, ...] = (0.8, 0.95),
    repetitions: int = 30,
    seed: int = 0,
    jobs: int = 1,
) -> list[Fig8Row]:
    """Run the Figure 8 grid (shrink the grid or reps for quick runs).

    ``jobs`` fans the grid out over worker processes; every cell keeps
    the base seed it always had (``spawn_seeds=False``), so the numbers
    are identical to the serial run for any job count.
    """
    scenarios = [
        ShuffleScenario(
            benign=benign,
            bots=bots,
            n_replicas=1000,
            target_fraction=target,
        )
        for benign in benign_counts
        for target in targets
        for bots in bot_counts
    ]
    results = run_scenario_grid(
        scenarios,
        repetitions=repetitions,
        seed=seed,
        spawn_seeds=False,
        workers=jobs,
    )
    return [
        Fig8Row(
            benign=result.scenario.benign,
            bots=result.scenario.bots,
            target=result.scenario.target_fraction,
            shuffles=result.shuffles,
            result=result,
        )
        for result in results
    ]


def render_fig8(rows: list[Fig8Row]) -> str:
    """ASCII rendition of Figure 8."""
    return render_table(
        [
            {
                "benign": row.benign,
                "target": f"{row.target:.0%}",
                "bots": row.bots,
                "shuffles": row.shuffles.format(1),
            }
            for row in rows
        ],
        title=(
            "Figure 8 — shuffles to save 80%/95% of benign clients, "
            "1000 shuffling replicas (paper headline: ~60 shuffles for "
            "80% of 50K benign vs 100K bots)"
        ),
    )


def chart_fig8(rows: list[Fig8Row]) -> str:
    """ASCII line chart of the four Figure 8 curves."""
    from .plots import Series, ascii_chart

    series = []
    for benign in sorted({row.benign for row in rows}):
        for target in sorted({row.target for row in rows}):
            pts = [
                (row.bots, row.shuffles.mean)
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
        title="Figure 8 — shuffles vs persistent bots",
        x_label="persistent bots",
        y_label="shuffles",
    )


def main() -> None:
    # A trimmed grid keeps the CLI run interactive; benchmarks and
    # EXPERIMENTS.md use the full grid.
    rows = run_fig8(
        bot_counts=(10_000, 50_000, 100_000), repetitions=5
    )
    print(render_fig8(rows))


if __name__ == "__main__":
    main()
