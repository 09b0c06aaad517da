"""Figure 10 — cumulative saved benign fraction vs. number of shuffles.

Paper setting: 10^5 persistent bots, benign populations 10K and 50K, 1000
shuffling replicas.  Claim: early shuffles save far more benign clients
than later ones, because every saved benign client increases the bot share
of the remaining population (diminishing returns).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.scenarios import fig10_scenarios
from ..sim.shuffle_sim import ScenarioResult, cumulative_saved_curve
from ..sim.stats import SampleSummary
from ..sim.sweep import run_scenario_grid
from .tables import render_table

__all__ = ["Fig10Curve", "run_fig10", "render_fig10", "FIG10_FRACTIONS"]

# The paper's x-axis checkpoints (cumulative saved share).
FIG10_FRACTIONS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
)


@dataclass(frozen=True)
class Fig10Curve:
    """Shuffles needed to reach each saved-fraction checkpoint."""

    benign: int
    fractions: tuple[float, ...]
    shuffles: tuple[SampleSummary, ...]
    result: ScenarioResult

    def marginal_costs(self) -> list[float]:
        """Extra shuffles per checkpoint step (should increase)."""
        means = [summary.mean for summary in self.shuffles]
        return [b - a for a, b in zip(means, means[1:])]


def run_fig10(
    fractions: tuple[float, ...] = FIG10_FRACTIONS,
    repetitions: int = 30,
    seed: int = 0,
    jobs: int = 1,
) -> list[Fig10Curve]:
    """Build both Figure 10 curves (10K and 50K benign)."""
    results = run_scenario_grid(
        fig10_scenarios(),
        repetitions=repetitions,
        seed=seed,
        spawn_seeds=False,
        workers=jobs,
    )
    curves = []
    for result in results:
        summaries = cumulative_saved_curve(result, fractions)
        curves.append(
            Fig10Curve(
                benign=result.scenario.benign,
                fractions=fractions,
                shuffles=tuple(summaries),
                result=result,
            )
        )
    return curves


def render_fig10(curves: list[Fig10Curve]) -> str:
    """ASCII rendition of Figure 10."""
    rows = []
    for curve in curves:
        for fraction, summary in zip(curve.fractions, curve.shuffles):
            rows.append(
                {
                    "benign": curve.benign,
                    "saved fraction": f"{fraction:.0%}",
                    "shuffles": summary.format(1),
                }
            )
    return render_table(
        rows,
        title=(
            "Figure 10 — shuffles to reach each cumulative saved fraction, "
            "100K bots, 1000 replicas (paper: early shuffles save more)"
        ),
    )


def chart_fig10(curves: list[Fig10Curve]) -> str:
    """ASCII line chart matching the paper's axes (fraction -> shuffles)."""
    from .plots import Series, ascii_chart

    series = [
        Series(
            f"{curve.benign // 1000}K benign",
            list(curve.fractions),
            [summary.mean for summary in curve.shuffles],
        )
        for curve in curves
    ]
    return ascii_chart(
        series,
        title="Figure 10 — shuffles vs cumulative saved fraction",
        x_label="saved fraction",
        y_label="shuffles",
    )


def main() -> None:
    print(render_fig10(run_fig10(repetitions=5)))


if __name__ == "__main__":
    main()
