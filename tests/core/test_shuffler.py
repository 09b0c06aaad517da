"""Tests for the multi-round shuffling engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.core.shuffler import (
    ShuffleEngine,
    ShuffleState,
    shuffle_trajectory,
)
from repro.obs import Instruments


def make_engine(p=20, planner="greedy", estimator="oracle", seed=7):
    return ShuffleEngine(
        n_replicas=p,
        planner=planner,
        estimator=estimator,
        rng=np.random.default_rng(seed),
    )


class TestConstruction:
    def test_unknown_planner(self):
        with pytest.raises(ValueError, match="unknown plan method 'nope'"):
            ShuffleEngine(n_replicas=5, planner="nope")

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            ShuffleEngine(n_replicas=5, estimator="psychic")

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            ShuffleEngine(n_replicas=0)

    def test_callable_planner_accepted(self):
        from repro.core.api import planner

        engine = ShuffleEngine(n_replicas=3, planner=planner("even"))
        state = engine.run(benign=30, bots=0, target_fraction=1.0)
        assert state.saved_fraction == 1.0


class TestRoundInvariants:
    @given(
        st.integers(1, 300),
        st.integers(0, 80),
        st.integers(1, 30),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30)
    def test_conservation(self, benign, bots, p, seed):
        engine = make_engine(p=p, seed=seed)
        state = ShuffleState(
            benign_active=benign,
            bots_active=bots,
            benign_initial=benign,
            benign_total_seen=benign,
        )
        result = engine.run_round(state)
        # Clients are conserved: saved + still-active == initial.
        assert state.benign_saved + state.benign_active == benign
        assert state.bots_active == bots  # bots are never "saved"
        assert sum(result.bots_per_replica) == bots
        assert result.n_clients == benign + bots
        # Every attacked replica really holds at least one bot.
        sizes = result.plan.group_sizes
        for size, bot_count in zip(sizes, result.bots_per_replica):
            assert bot_count <= size

    def test_saved_only_from_clean_replicas(self):
        engine = make_engine(p=10, seed=1)
        state = ShuffleState(
            benign_active=50, bots_active=5,
            benign_initial=50, benign_total_seen=50,
        )
        result = engine.run_round(state)
        clean_clients = sum(
            size
            for size, bot_count in zip(
                result.plan.group_sizes, result.bots_per_replica
            )
            if bot_count == 0
        )
        assert result.benign_saved == clean_clients

    def test_no_bots_saves_everyone_in_one_round(self):
        engine = make_engine(p=5)
        state = engine.run(benign=40, bots=0, target_fraction=1.0)
        assert state.benign_saved == 40
        assert len(state.rounds) == 1


class TestRun:
    def test_reaches_target(self):
        engine = make_engine(p=50, seed=2)
        state = engine.run(benign=500, bots=50, target_fraction=0.8)
        assert state.saved_fraction >= 0.8

    def test_respects_max_rounds(self):
        engine = make_engine(p=2, seed=3)
        state = engine.run(
            benign=100, bots=50, target_fraction=0.99, max_rounds=4
        )
        assert len(state.rounds) <= 4

    def test_target_validation(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.run(benign=10, bots=1, target_fraction=1.5)

    def test_arrivals_hook(self):
        engine = make_engine(p=20, seed=4)
        calls = []

        def arrivals(round_index, rng):
            calls.append(round_index)
            return (5, 1) if round_index < 3 else (0, 0)

        state = engine.run(
            benign=100, bots=10, target_fraction=0.9, arrivals=arrivals,
            max_rounds=200,
        )
        assert calls[:3] == [0, 1, 2]
        assert state.benign_total_seen == 115



class TestEstimators:
    @pytest.mark.parametrize("estimator", ["oracle", "mle", "posterior"])
    def test_all_estimators_converge(self, estimator):
        engine = make_engine(p=30, estimator=estimator, seed=11)
        state = engine.run(benign=300, bots=30, target_fraction=0.8,
                           max_rounds=300)
        assert state.saved_fraction >= 0.8

    def test_estimates_recorded(self):
        engine = make_engine(p=20, estimator="mle", seed=12)
        state = engine.run(benign=200, bots=20, target_fraction=0.5)
        estimates = [r.estimate for r in state.rounds]
        assert all(e is not None for e in estimates)

    def test_oracle_records_no_estimate(self):
        engine = make_engine(p=20, estimator="oracle", seed=13)
        state = engine.run(benign=200, bots=20, target_fraction=0.5)
        assert all(r.estimate is None for r in state.rounds)

    def test_posterior_belief_tracks_truth(self):
        engine = make_engine(p=50, estimator="posterior", seed=14)
        state = engine.run(benign=500, bots=40, target_fraction=0.9,
                           max_rounds=200)
        # After the first round, beliefs should be in the right ballpark.
        late = [r for r in state.rounds[1:] if r.true_bots > 0]
        assert late, "expected multiple rounds"
        ratios = [r.believed_bots / r.true_bots for r in late]
        assert 0.2 < float(np.median(ratios)) < 5.0

    def test_posterior_records_its_beliefs_not_estimates(self):
        engine = make_engine(p=20, estimator="posterior", seed=12)
        state = engine.run(benign=200, bots=20, target_fraction=0.5)
        assert all(r.estimate is None for r in state.rounds)
        assert engine.policy.method == "weighted"
        # Round one plans at the truth; a fresh run forgets the posterior.
        assert state.rounds[0].believed_bots == 20
        engine.run(benign=10, bots=0, target_fraction=0.0)
        assert engine.policy.log_posterior is None


class TestTrajectory:
    def test_cumulative_and_fraction(self):
        engine = make_engine(p=20, seed=21)
        state = engine.run(benign=200, bots=20, target_fraction=0.9,
                           max_rounds=100)
        points = list(shuffle_trajectory(state))
        assert len(points) == len(state.rounds)
        cumulative = [p[1] for p in points]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == state.benign_saved
        assert points[-1][2] == pytest.approx(state.saved_fraction)


class TestPlannersRegistry:
    """The engine's planner names are ``api.PLAN_METHODS``."""

    def test_registry_contents(self):
        assert api.PLAN_METHODS == ("greedy", "even", "dp", "dp_fast")

    @pytest.mark.parametrize("name", api.PLAN_METHODS)
    def test_each_planner_runs(self, name):
        # planner=<name> is planner=api.planner(<name>): the same rounds
        # bit for bit, counted under the same planner= label (N <= 60
        # keeps the paper-literal dp fast).
        runs = []
        for source in (name, api.planner(name)):
            instruments = Instruments.create()
            engine = ShuffleEngine(
                n_replicas=5,
                planner=source,
                estimator="posterior",
                rng=np.random.default_rng(31),
                instruments=instruments,
            )
            state = engine.run(benign=40, bots=4, target_fraction=0.5,
                               max_rounds=60)
            counter = instruments.registry.counter(
                "shuffle_rounds_total", "", ("planner", "estimator")
            )
            rounds = counter.value(planner=name, estimator="posterior")
            runs.append((state.rounds, rounds))
        assert runs[0] == runs[1]
        assert runs[0][1] == len(runs[0][0]) > 0
