"""Scenario grids over a process pool, with CSV export.

:func:`run_scenario_grid` is what the figure drivers run;
:func:`sweep` flattens its results into records for users exploring
their own parameter spaces:

    from repro.sim import ShuffleScenario
    from repro.sim.sweep import sweep, to_csv

    if __name__ == "__main__":  # workers are spawned processes
        grid = [
            ShuffleScenario(benign=10_000, bots=bots, n_replicas=p)
            for bots in (20_000, 50_000)
            for p in (500, 1_000)
        ]
        records = sweep(grid, repetitions=5, workers=4)
        print(to_csv(records))

Each record is a flat dict (scenario parameters + outcome statistics), so
the output drops straight into a spreadsheet or pandas.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from .shuffle_sim import ScenarioResult, ShuffleScenario, run_scenario

__all__ = ["run_scenario_grid", "sweep", "record_from_result", "to_csv"]


def record_from_result(result: ScenarioResult) -> dict[str, object]:
    """Flatten one scenario outcome into a spreadsheet row."""
    scenario = result.scenario
    return {
        "benign": scenario.benign,
        "bots": scenario.bots,
        "n_replicas": scenario.n_replicas,
        "target_fraction": scenario.target_fraction,
        "planner": scenario.planner,
        "estimator": scenario.estimator,
        "preload_bots": scenario.preload_bots,
        "repetitions": result.shuffles.n,
        "shuffles_mean": result.shuffles.mean,
        "shuffles_ci": result.shuffles.half_width,
        "saved_fraction_mean": result.saved_fraction.mean,
        "saved_fraction_ci": result.saved_fraction.half_width,
        "all_reached_target": all(
            run.reached_target for run in result.runs
        ),
    }


def run_scenario_grid(
    scenarios: Sequence[ShuffleScenario],
    *,
    repetitions: int = 5,
    seed: int = 0,
    confidence: float = 0.99,
    spawn_seeds: bool = True,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Run every scenario; one :class:`ScenarioResult` each, grid order.

    Cell ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))`` — the
    child ``SeedSequence(seed).spawn(n)[i]`` — when ``spawn_seeds`` is
    true (independent cells, the :func:`sweep` contract), and from the
    base ``SeedSequence(seed)`` when it is false (the figure drivers'
    convention, which their published numbers depend on).  Either way a
    result depends only on ``(seed, index, scenario, repetitions,
    confidence)``, so it is identical for any ``workers``.

    ``workers=1`` runs in this process; more runs the cells on a pool
    of that many spawned worker processes, so a script that asks for
    them must keep its entry point under ``if __name__ == "__main__":``.
    A cell that raises re-raises here.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    seeds = [
        np.random.SeedSequence(
            seed, spawn_key=(index,) if spawn_seeds else ()
        )
        for index in range(len(scenarios))
    ]
    # run_scenario's positional parameters, one column each.
    columns = (scenarios, repeat(repetitions), seeds, repeat(confidence))
    if workers == 1:
        return list(map(run_scenario, *columns))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context("spawn")
    ) as pool:
        return list(pool.map(run_scenario, *columns))


def sweep(
    scenarios: Sequence[ShuffleScenario],
    repetitions: int = 5,
    seed: int = 0,
    confidence: float = 0.99,
    *,
    workers: int = 1,
) -> list[dict[str, object]]:
    """Run every scenario and return one flat record per scenario.

    Record-level reproducibility contract: cell ``i`` always draws from
    the stream of ``SeedSequence(seed).spawn(len(scenarios))[i]``
    (equivalently ``SeedSequence(seed, spawn_key=(i,))``), so

    - records depend only on ``(seed, index, scenario, repetitions,
      confidence)`` — never on worker count or completion order;
    - a cell can be recomputed in isolation by rebuilding that child
      sequence;
    - distinct base seeds yield statistically independent grids (the
      previous ``seed + index`` derivation let ``sweep(grid, seed=0)``
      cell 1 reuse the stream of ``sweep(grid, seed=1)`` cell 0).

    Args:
        scenarios: the grid, one record per entry (grid order).
        repetitions: runs per cell.
        seed: base seed for the per-cell spawn derivation above.
        confidence: confidence level for the summary intervals.
        workers: parallel worker processes (see
            :func:`run_scenario_grid`).
    """
    return [
        record_from_result(result)
        for result in run_scenario_grid(
            scenarios,
            repetitions=repetitions,
            seed=seed,
            confidence=confidence,
            spawn_seeds=True,
            workers=workers,
        )
    ]


def to_csv(records: Sequence[dict[str, object]]) -> str:
    """Render sweep records as CSV (header from the first record)."""
    if not records:
        return ""
    import csv

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(records[0].keys()))
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    return buffer.getvalue()
