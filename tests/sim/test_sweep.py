"""Tests for the scenario-grid runner."""

from __future__ import annotations

import pytest

from repro.sim.shuffle_sim import ShuffleScenario, run_scenario
from repro.sim.sweep import run_scenario_grid


def tiny_grid():
    return [
        ShuffleScenario(
            benign=300, bots=bots, n_replicas=40,
            target_fraction=0.8, preload_bots=True, max_rounds=400,
        )
        for bots in (30, 120)
    ]


class TestSweep:
    def test_outcomes_sensible(self):
        results = run_scenario_grid(tiny_grid(), repetitions=3, seed=2)
        assert results[1].shuffles.mean > results[0].shuffles.mean
        assert all(
            run.reached_target for result in results for run in result.runs
        )

    def test_reproducible(self):
        first = run_scenario_grid(tiny_grid(), repetitions=2, seed=3)
        second = run_scenario_grid(tiny_grid(), repetitions=2, seed=3)
        assert first == second

    def test_empty_grid(self):
        assert run_scenario_grid([], repetitions=2) == []


class TestRunScenarioGrid:
    def test_each_cell_is_a_direct_run_scenario(self):
        """Every cell is run_scenario under the same int seed."""
        results = run_scenario_grid(tiny_grid(), repetitions=3, seed=5)
        for scenario, result in zip(tiny_grid(), results):
            assert result == run_scenario(scenario, repetitions=3, seed=5)

    def test_workers_do_not_change_results(self):
        serial = run_scenario_grid(tiny_grid(), repetitions=3, seed=6)
        parallel = run_scenario_grid(
            tiny_grid(), repetitions=3, seed=6, workers=2
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


class TestWeightedEstimatorInEngine:
    def test_weighted_estimator_converges(self):
        # The posterior's updates inside each plan are its "weighted"
        # ones: the likelihood over the plan's actual group sizes.
        scenario = ShuffleScenario(
            benign=400, bots=80, n_replicas=40,
            target_fraction=0.8, preload_bots=True,
            estimator="posterior", max_rounds=500,
        )
        (result,) = run_scenario_grid([scenario], repetitions=2, seed=5)
        assert all(run.reached_target for run in result.runs)
