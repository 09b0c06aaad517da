"""Tests for the generic sweep utility."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from repro.sim.shuffle_sim import ShuffleScenario, run_scenario
from repro.sim.sweep import run_scenario_grid, sweep, to_csv


def tiny_grid():
    return [
        ShuffleScenario(
            benign=300, bots=bots, n_replicas=40,
            target_fraction=0.8, preload_bots=True, max_rounds=400,
        )
        for bots in (30, 120)
    ]


class TestSweep:
    def test_one_record_per_scenario(self):
        records = sweep(tiny_grid(), repetitions=3, seed=1)
        assert len(records) == 2
        assert records[0]["bots"] == 30
        assert records[1]["bots"] == 120
        assert all(record["repetitions"] == 3 for record in records)

    def test_outcomes_sensible(self):
        records = sweep(tiny_grid(), repetitions=3, seed=2)
        assert (
            records[1]["shuffles_mean"] > records[0]["shuffles_mean"]
        )
        assert all(record["all_reached_target"] for record in records)

    def test_reproducible(self):
        first = sweep(tiny_grid(), repetitions=2, seed=3)
        second = sweep(tiny_grid(), repetitions=2, seed=3)
        assert first == second

    def test_empty_grid(self):
        assert sweep([], repetitions=2) == []

    def test_adjacent_base_seeds_do_not_overlap(self):
        """Regression: the old `seed + index` derivation made
        sweep(seed=0) cell 1 reuse the stream of sweep(seed=1) cell 0.
        Spawned children keep whole grids independent."""
        same_scenario_twice = [tiny_grid()[0], tiny_grid()[0]]
        grid_seed0 = sweep(same_scenario_twice, repetitions=3, seed=0)
        grid_seed1 = sweep(same_scenario_twice, repetitions=3, seed=1)
        assert grid_seed0[1] != grid_seed1[0]

    def test_workers_produce_identical_records(self):
        serial = sweep(tiny_grid(), repetitions=3, seed=6)
        parallel = sweep(tiny_grid(), repetitions=3, seed=6, workers=4)
        assert serial == parallel
        assert to_csv(serial) == to_csv(parallel)


class TestRunScenarioGrid:
    @pytest.mark.parametrize("spawn_seeds", [True, False])
    def test_each_cell_is_a_direct_run_scenario(self, spawn_seeds):
        """Cell i is run_scenario under SeedSequence(seed).spawn(n)[i]
        (spawn_seeds=True, the sweep contract) or under the base
        SeedSequence(seed) (False, the figure drivers' convention)."""
        results = run_scenario_grid(
            tiny_grid(), repetitions=3, seed=5, spawn_seeds=spawn_seeds
        )
        for index, (scenario, result) in enumerate(
            zip(tiny_grid(), results)
        ):
            spawn_key = (index,) if spawn_seeds else ()
            assert result == run_scenario(
                scenario,
                repetitions=3,
                seed=np.random.SeedSequence(5, spawn_key=spawn_key),
            )

    @pytest.mark.parametrize("spawn_seeds", [True, False])
    def test_workers_do_not_change_results(self, spawn_seeds):
        serial = run_scenario_grid(
            tiny_grid(), repetitions=3, seed=6, spawn_seeds=spawn_seeds
        )
        parallel = run_scenario_grid(
            tiny_grid(), repetitions=3, seed=6, spawn_seeds=spawn_seeds,
            workers=2,
        )
        assert serial == parallel

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_scenario_raises_its_own_error(self, workers):
        bad = ShuffleScenario(
            benign=300, bots=30, n_replicas=40, planner="no-such",
            preload_bots=True,
        )
        with pytest.raises(ValueError, match="no-such"):
            run_scenario_grid(
                [tiny_grid()[0], bad], repetitions=2, seed=1,
                workers=workers,
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers=0"):
            run_scenario_grid(tiny_grid(), workers=0)


class TestCsv:
    def test_round_trip(self):
        records = sweep(tiny_grid(), repetitions=2, seed=4)
        text = to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["bots"] == "30"
        assert float(rows[0]["shuffles_mean"]) > 0

    def test_empty(self):
        assert to_csv([]) == ""


class TestWeightedEstimatorInEngine:
    def test_weighted_estimator_converges(self):
        scenario = ShuffleScenario(
            benign=400, bots=80, n_replicas=40,
            target_fraction=0.8, preload_bots=True,
            estimator="weighted", max_rounds=500,
        )
        records = sweep([scenario], repetitions=2, seed=5)
        assert records[0]["all_reached_target"]
