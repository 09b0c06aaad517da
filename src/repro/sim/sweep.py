"""Scenario grids over a process pool.

:func:`run_scenario_grid` is what the figure drivers run, and what a
user exploring their own parameter space calls:

    from repro.sim import ShuffleScenario
    from repro.sim.sweep import run_scenario_grid

    if __name__ == "__main__":  # workers are spawned processes
        grid = [
            ShuffleScenario(benign=10_000, bots=bots, n_replicas=p)
            for bots in (20_000, 50_000)
            for p in (500, 1_000)
        ]
        for result in run_scenario_grid(grid, repetitions=5, workers=4):
            print(result.scenario.describe(), result.shuffles.format(1))
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from multiprocessing import get_context
from typing import Sequence

from .shuffle_sim import ScenarioResult, ShuffleScenario, run_scenario

__all__ = ["run_scenario_grid"]


def run_scenario_grid(
    scenarios: Sequence[ShuffleScenario],
    *,
    repetitions: int = 5,
    seed: int = 0,
    confidence: float = 0.99,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Run every scenario; one :class:`ScenarioResult` each, grid order.

    Every cell is ``run_scenario(scenario, repetitions, seed,
    confidence)`` with the same int ``seed``, so a cell's result depends
    only on ``(seed, scenario, repetitions, confidence)`` — identical
    for any ``workers`` and equal to a direct :func:`run_scenario` call.

    ``workers=1`` runs in this process; more runs the cells on a pool
    of that many spawned worker processes, so a script that asks for
    them must keep its entry point under ``if __name__ == "__main__":``.
    A cell that raises re-raises here.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    # run_scenario's positional parameters, one column each.
    columns = (
        scenarios, repeat(repetitions), repeat(seed), repeat(confidence)
    )
    if workers == 1:
        return list(map(run_scenario, *columns))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context("spawn")
    ) as pool:
        return list(pool.map(run_scenario, *columns))
