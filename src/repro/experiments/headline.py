"""The paper's headline claim, as a single runnable experiment.

Abstract / Section VII: "we can effectively mitigate strong DDoS attacks
(100K persistent attackers) by saving 80% of 50K benign clients in
approximately 60 shuffles, each of which takes only a few seconds".

The shuffle count reproduces here (tens of shuffles, same order); the
"few seconds per shuffle" half of the claim is covered by the Figure 12
migration experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.scenarios import headline_scenario
from ..sim.shuffle_sim import ScenarioResult, run_scenario

__all__ = ["HeadlineResult", "run_headline", "render_headline"]

PAPER_HEADLINE_SHUFFLES = 60.0


@dataclass(frozen=True)
class HeadlineResult:
    """Measured headline numbers next to the paper's."""

    result: ScenarioResult

    @property
    def mean_shuffles(self) -> float:
        return self.result.shuffles.mean

    @property
    def within_2x_of_paper(self) -> bool:
        """Loose shape check: same order of magnitude as ~60 shuffles."""
        return (
            PAPER_HEADLINE_SHUFFLES / 2
            <= self.mean_shuffles
            <= PAPER_HEADLINE_SHUFFLES * 2
        )


def run_headline(repetitions: int = 10, seed: int = 0) -> HeadlineResult:
    """Run the 50K-benign / 100K-bot / 1000-replica scenario."""
    return HeadlineResult(
        result=run_scenario(
            headline_scenario(), repetitions=repetitions, seed=seed
        )
    )


def render_headline(headline: HeadlineResult) -> str:
    result = headline.result
    return "\n".join(
        [
            "Headline — mitigate 100K persistent bots, save 80% of 50K "
            "benign clients (1000 shuffling replicas)",
            f"paper:    ~{PAPER_HEADLINE_SHUFFLES:.0f} shuffles",
            f"measured: {result.shuffles.format(1)} shuffles "
            f"(n={result.shuffles.n}, {result.shuffles.confidence:.0%} CI)",
            f"saved fraction at stop: {result.saved_fraction.format(3)}",
            f"within 2x of paper: {headline.within_2x_of_paper}",
        ]
    )
