"""Generic scenario sweeps with CSV export.

The figure drivers hand-roll their grids; this utility generalizes the
pattern for users exploring their own parameter spaces:

    from repro.sim import ShuffleScenario
    from repro.sim.sweep import sweep, to_csv

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
from pathlib import Path
from typing import Any, Callable, Sequence

from .backend import get_backend
from .shuffle_sim import ScenarioResult, ShuffleScenario

__all__ = ["sweep", "record_from_result", "to_csv"]


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


def sweep(
    scenarios: Sequence[ShuffleScenario],
    repetitions: int = 5,
    seed: int = 0,
    confidence: float = 0.99,
    *,
    workers: int = 1,
    cache_dir: Path | str | None = None,
    progress: Callable[..., Any] | None = None,
) -> list[dict[str, object]]:
    """Run every scenario and return one flat record per scenario.

    The grid runs on the :mod:`repro.runtime` backend, which ``import
    repro`` registers.

    Record-level reproducibility contract: cell ``i`` always draws from
    the stream of ``SeedSequence(seed).spawn(len(scenarios))[i]``
    (equivalently ``SeedSequence(seed, spawn_key=(i,))``), so

    - records depend only on ``(seed, index, scenario, repetitions,
      confidence)`` — never on worker count, completion order, or which
      cells were served from cache;
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
        workers: parallel worker processes.
        cache_dir: content-addressed result cache directory; completed
            cells checkpoint there and interrupted sweeps resume from it.
        progress: per-cell completion callback, forwarded to
            :func:`repro.runtime.executor.run_tasks`.
    """
    return list(
        get_backend("sweep")(
            scenarios,
            repetitions=repetitions,
            seed=seed,
            confidence=confidence,
            workers=workers,
            cache_dir=cache_dir,
            progress=progress,
        )
    )


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
