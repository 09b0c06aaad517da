"""Ablation experiments beyond the paper's figures.

Four design questions DESIGN.md calls out, each answerable inside this
reproduction:

1. **Planner** — how much does plan quality compound over a multi-round
   defense (greedy vs. the even baseline)?
2. **Estimator** — what is the shuffle premium for *not* knowing the bot
   count (oracle vs. the paper's memoryless MLE vs. the posterior every
   driver runs)?
3. **Theorem 1 growth** — what does adaptive replica-pool growth buy in
   the saturated regime?
4. **Expansion** — how do shuffling's resources compare against the pure
   server-expansion dilution strategy at the same protection target (the
   paper's intro claim and stated future-work cost study)?

Run via ``python -m repro.experiments ablations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.cost import DefenseCost, compare_costs
from ..analysis.theory import max_estimable_bots
from ..core.shuffler import ShuffleEngine
from ..sim.shuffle_sim import ScenarioResult, ShuffleScenario
from ..sim.sweep import run_scenario_grid
from .tables import render_table

__all__ = ["AblationResults", "run_ablations", "render_ablations"]


@dataclass(frozen=True)
class AblationResults:
    """Everything the ablation suite measures."""

    planners: dict[str, ScenarioResult]
    estimators: dict[str, ScenarioResult]
    growth: dict[str, tuple[int, int, float]]  # pool, rounds, saved
    costs: tuple[DefenseCost, DefenseCost]


def _planner_ablation(
    repetitions: int, jobs: int = 1
) -> dict[str, ScenarioResult]:
    scenario = dict(
        benign=2_000, bots=800, n_replicas=100, target_fraction=0.8,
        preload_bots=True, max_rounds=3_000,
    )
    planners = ("greedy", "even")
    results = run_scenario_grid(
        [ShuffleScenario(planner=planner, **scenario)
         for planner in planners],
        repetitions=repetitions,
        seed=11,
        workers=jobs,
    )
    return dict(zip(planners, results))


def _estimator_ablation(
    repetitions: int, jobs: int = 1
) -> dict[str, ScenarioResult]:
    scenario = dict(
        benign=2_000, bots=500, n_replicas=100, target_fraction=0.8,
        preload_bots=True, max_rounds=2_000,
    )
    estimators = ("oracle", "mle", "posterior")
    results = run_scenario_grid(
        [ShuffleScenario(estimator=estimator, **scenario)
         for estimator in estimators],
        repetitions=repetitions,
        seed=13,
        workers=jobs,
    )
    return dict(zip(estimators, results))


def _growth_ablation() -> dict[str, tuple[int, int, float]]:
    outcomes = {}
    for label, adaptive in (("fixed", False), ("adaptive", True)):
        engine = ShuffleEngine(
            n_replicas=8,
            planner="greedy",
            rng=np.random.default_rng(21),
            adaptive_growth=adaptive,
            max_replicas=4_096,
        )
        state = engine.run(
            benign=1_000, bots=400, target_fraction=0.8, max_rounds=200
        )
        outcomes[label] = (
            engine.n_replicas,
            len(state.rounds),
            state.saved_fraction,
        )
    return outcomes


def run_ablations(repetitions: int = 10, jobs: int = 1) -> AblationResults:
    """Run the whole ablation suite (``jobs`` fans out the sim grids)."""
    return AblationResults(
        planners=_planner_ablation(repetitions, jobs=jobs),
        estimators=_estimator_ablation(repetitions, jobs=jobs),
        growth=_growth_ablation(),
        costs=compare_costs(
            benign=50_000,
            bots=100_000,
            target_fraction=0.8,
            shuffles_needed=67,
            n_replicas=1_000,
        ),
    )


def render_ablations(results: AblationResults) -> str:
    """All four ablation tables as one report."""
    sections = []
    sections.append(render_table(
        [
            {
                "planner": planner,
                "shuffles": result.shuffles.format(1),
                "saved": result.saved_fraction.format(3),
            }
            for planner, result in results.planners.items()
        ],
        title="Ablation 1 — planner (2K benign, 800 preloaded bots, "
              "100 replicas, 80% target)",
    ))
    sections.append(render_table(
        [
            {
                "estimator": estimator,
                "shuffles": result.shuffles.format(1),
                "saved": result.saved_fraction.format(3),
            }
            for estimator, result in results.estimators.items()
        ],
        title="Ablation 2 — bot-count knowledge (2K benign, 500 "
              "preloaded bots, 100 replicas)",
    ))
    sections.append(render_table(
        [
            {
                "policy": label,
                "final pool": pool,
                "rounds": rounds,
                "saved": saved,
            }
            for label, (pool, rounds, saved) in results.growth.items()
        ],
        title=(
            "Ablation 3 — Theorem 1 adaptive growth (1K benign, 400 "
            f"bots, start pool 8; saturation above "
            f"~{max_estimable_bots(8):.0f} bots)"
        ),
    ))
    shuffling, expansion = results.costs
    sections.append(render_table(
        [
            {
                "strategy": cost.strategy,
                "peak instances": cost.peak_instances,
                "instance-hours": cost.instance_hours,
                "launches": cost.launches,
                "dollars": cost.dollars,
            }
            for cost in (shuffling, expansion)
        ],
        title="Ablation 4 — shuffling vs pure expansion at the headline "
              "scale (80% of 50K benign vs 100K bots)",
    ))
    return "\n\n".join(sections)
