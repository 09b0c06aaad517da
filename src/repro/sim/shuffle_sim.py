"""Repeated-run Monte-Carlo harness for the shuffling simulations.

This module reproduces the *methodology* of paper Section VI-A: a scenario
(benign population, bot population, replica count, arrival processes) is
run repeatedly with independent seeds; the quantities the paper plots —
shuffles to reach a saving target (Figures 8 & 9) and the cumulative saved
trajectory (Figure 10) — are summarized with means and confidence
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.shuffler import ShuffleEngine, ShuffleState
from .arrivals import PAPER_BENIGN_RATE, PAPER_BOT_RATE, PoissonArrivals
from .stats import SampleSummary, summarize

__all__ = [
    "ShuffleScenario",
    "RunRecord",
    "ScenarioResult",
    "run_scenario_once",
    "run_scenario",
    "cumulative_saved_curve",
]


@dataclass(frozen=True)
class ShuffleScenario:
    """A fully specified Section VI-A simulation setting.

    Attributes:
        benign: benign clients present when the attack begins.
        bots: target persistent-bot population.  Bots trickle in via the
            Poisson arrival process (rate ``bot_rate``) until this many
            have joined, matching the paper's build-up dynamics; set
            ``preload_bots=True`` to start with all bots present instead.
        n_replicas: constant shuffling replica count ``P``.
        target_fraction: stop once this share of all benign clients seen
            has been saved (0.8 / 0.95 in the paper).
        planner: planner name from :data:`repro.core.shuffler.PLANNERS`.
        estimator: ``"oracle"`` (paper's simulation assumption), ``"mle"``,
            ``"moment"`` or ``"weighted"``.
        benign_rate / bot_rate: Poisson arrival means per shuffle.
        preload_bots: start the run with all ``bots`` active (no build-up).
        max_rounds: safety cap on shuffle count.
    """

    benign: int
    bots: int
    n_replicas: int
    target_fraction: float = 0.8
    planner: str = "greedy"
    estimator: str = "oracle"
    benign_rate: float = PAPER_BENIGN_RATE
    bot_rate: float = PAPER_BOT_RATE
    preload_bots: bool = False
    max_rounds: int = 2_000

    def describe(self) -> str:
        return (
            f"benign={self.benign} bots={self.bots} P={self.n_replicas} "
            f"target={self.target_fraction:.0%} planner={self.planner} "
            f"estimator={self.estimator}"
        )


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one simulated run."""

    n_shuffles: int
    benign_saved: int
    benign_initial: int
    benign_total: int
    reached_target: bool
    saved_per_round: tuple[int, ...]

    @property
    def saved_fraction(self) -> float:
        """Saved share of the initial benign population (paper basis)."""
        return self.benign_saved / max(1, self.benign_initial)

    @property
    def saved_fraction_total(self) -> float:
        """Saved share of all benign clients ever seen."""
        return self.benign_saved / max(1, self.benign_total)


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregate of repeated runs of one scenario."""

    scenario: ShuffleScenario
    runs: tuple[RunRecord, ...]
    shuffles: SampleSummary
    saved_fraction: SampleSummary

    @property
    def mean_shuffles(self) -> float:
        return self.shuffles.mean


def run_scenario_once(
    scenario: ShuffleScenario, rng: np.random.Generator
) -> RunRecord:
    """Execute a single run of ``scenario`` with the given generator."""
    engine = ShuffleEngine(
        n_replicas=scenario.n_replicas,
        planner=scenario.planner,
        estimator=scenario.estimator,
        rng=rng,
    )
    if scenario.preload_bots:
        initial_bots = scenario.bots
        arrivals = PoissonArrivals(
            benign_rate=scenario.benign_rate,
            bot_rate=0.0,
            bot_cap=0,
        )
    else:
        initial_bots = 0
        arrivals = PoissonArrivals(
            benign_rate=scenario.benign_rate,
            bot_rate=scenario.bot_rate,
            bot_cap=scenario.bots,
        )
    state = engine.run(
        benign=scenario.benign,
        bots=initial_bots,
        target_fraction=scenario.target_fraction,
        max_rounds=scenario.max_rounds,
        arrivals=arrivals,
    )
    return _record_from_state(state, scenario)


def _record_from_state(
    state: ShuffleState, scenario: ShuffleScenario
) -> RunRecord:
    return RunRecord(
        n_shuffles=len(state.rounds),
        benign_saved=state.benign_saved,
        benign_initial=state.benign_initial,
        benign_total=state.benign_total_seen,
        reached_target=state.saved_fraction >= scenario.target_fraction,
        saved_per_round=tuple(r.benign_saved for r in state.rounds),
    )


def run_scenario(
    scenario: ShuffleScenario,
    repetitions: int = 30,
    seed: int | np.random.SeedSequence = 0,
    confidence: float = 0.99,
) -> ScenarioResult:
    """Run a scenario ``repetitions`` times (paper default: 30, 99% CI).

    ``seed`` may be a ready-made :class:`~numpy.random.SeedSequence`
    (e.g. a spawned child from a sweep) — an int is wrapped in one.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions={repetitions} must be >= 1")
    seed_seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    runs = []
    for child in seed_seq.spawn(repetitions):
        runs.append(run_scenario_once(scenario, np.random.default_rng(child)))
    shuffles = summarize(
        [run.n_shuffles for run in runs], confidence=confidence
    )
    saved = summarize(
        [run.saved_fraction for run in runs], confidence=confidence
    )
    return ScenarioResult(
        scenario=scenario,
        runs=tuple(runs),
        shuffles=shuffles,
        saved_fraction=saved,
    )


def cumulative_saved_curve(
    result: ScenarioResult, fractions: Sequence[float]
) -> list[SampleSummary]:
    """Shuffles needed to reach each saved fraction (Figure 10's axes).

    For each requested fraction, every run contributes the first shuffle
    index at which its cumulative saved share reached that fraction; runs
    that never reached it contribute their total shuffle count (a lower
    bound, flagged by the run's ``reached_target``).
    """
    summaries = []
    for fraction in fractions:
        counts = []
        for run in result.runs:
            threshold = fraction * run.benign_initial
            cumulative = 0
            reached_at = run.n_shuffles
            for index, saved in enumerate(run.saved_per_round, start=1):
                cumulative += saved
                if cumulative >= threshold:
                    reached_at = index
                    break
            counts.append(reached_at)
        summaries.append(summarize(counts, confidence=0.99))
    return summaries
