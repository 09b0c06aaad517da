"""Unit tests for repro.core.plan."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.plan import (
    PlanError,
    ShufflePlan,
    _expand_runs,
    _plan_from_runs,
    validate_partition,
)


class TestShufflePlanValidation:
    def test_valid_plan(self):
        plan = ShufflePlan(group_sizes=(3, 4, 3), n_clients=10, n_bots=2)
        assert plan.n_replicas == 3

    def test_sizes_must_sum_to_clients(self):
        with pytest.raises(PlanError, match="sum"):
            ShufflePlan(group_sizes=(3, 4), n_clients=10, n_bots=2)

    def test_negative_size_rejected(self):
        with pytest.raises(PlanError, match="negative"):
            ShufflePlan(group_sizes=(11, -1), n_clients=10, n_bots=2)

    def test_bots_bounded_by_clients(self):
        with pytest.raises(PlanError, match="n_bots"):
            ShufflePlan(group_sizes=(5, 5), n_clients=10, n_bots=11)

    def test_negative_clients_rejected(self):
        with pytest.raises(PlanError, match="n_clients"):
            ShufflePlan(group_sizes=(), n_clients=-1, n_bots=0)

    def test_empty_plan_is_legal(self):
        plan = ShufflePlan(group_sizes=(), n_clients=0, n_bots=0)
        assert plan.n_replicas == 0

    def test_zero_sized_groups_allowed(self):
        plan = ShufflePlan(group_sizes=(0, 10, 0), n_clients=10, n_bots=1)
        assert plan.nonempty_sizes() == (10,)


class TestFromSizes:
    def test_infers_n_clients(self):
        plan = ShufflePlan.from_sizes([2, 3, 5], n_bots=1)
        assert plan.n_clients == 10
        assert plan.group_sizes == (2, 3, 5)

    def test_coerces_numpy_ints(self):
        plan = ShufflePlan.from_sizes(np.array([2, 3], dtype=np.int64), 1)
        assert all(isinstance(s, int) for s in plan.group_sizes)

    @pytest.mark.parametrize(
        "sizes", [[2.5, 2.5], np.array([2.5, 2.5]), np.array([2.0, 3.0])]
    )
    def test_non_integral_sizes_raise(self, sizes):
        # Truncating would build (2, 2) with n_clients 4 out of 5 clients;
        # a float array raises even when every value is whole.
        with pytest.raises(TypeError):
            ShufflePlan.from_sizes(sizes, 0)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=20))
    def test_roundtrip(self, sizes):
        plan = ShufflePlan.from_sizes(sizes, n_bots=0)
        assert list(plan.group_sizes) == sizes
        assert plan.n_clients == sum(sizes)


class TestAccessors:
    def test_sizes_array_is_a_copy(self):
        plan = ShufflePlan.from_sizes([1, 2, 3], 0)
        arr = plan.sizes_array
        arr[0] = 99
        assert plan.group_sizes == (1, 2, 3)

    def test_describe_mentions_algorithm_and_sizes(self):
        plan = ShufflePlan.from_sizes(
            [5, 5, 10], 2, expected_saved=7.5, algorithm="greedy"
        )
        text = plan.describe()
        assert "greedy" in text
        assert "2x5" in text
        assert "1x10" in text
        assert "7.50" in text


class TestValidatePartition:
    def test_accepts_valid(self):
        validate_partition([1, 2, 3], 6)

    def test_rejects_bad_sum(self):
        with pytest.raises(PlanError):
            validate_partition([1, 2, 3], 7)

    def test_rejects_negative(self):
        with pytest.raises(PlanError):
            validate_partition([-1, 7], 6)


class TestPlanFromRuns:
    """A planner's plan keeps its runs; it is still the same plan."""

    RUNS = ((100, 7), (36, 0), (35, 3))

    def _pair(self):
        runs_plan = _plan_from_runs(self.RUNS, 805, 4, 1.5, "greedy")
        sized = ShufflePlan(
            group_sizes=(100,) * 7 + (35,) * 3,
            n_clients=805,
            n_bots=4,
            expected_saved=1.5,
            algorithm="greedy",
        )
        return runs_plan, sized

    def test_equal_to_the_plan_built_from_its_sizes(self):
        runs_plan, sized = self._pair()
        assert runs_plan == sized
        assert hash(runs_plan) == hash(sized)
        assert repr(runs_plan) == repr(sized)
        assert dataclasses.fields(runs_plan) == dataclasses.fields(sized)
        assert sized._runs is None

    def test_sizes_array_repeats_the_runs(self):
        runs_plan, sized = self._pair()
        got = runs_plan.sizes_array
        assert got.dtype == np.int64
        assert got.tobytes() == sized.sizes_array.tobytes()
        got[0] = -1  # a copy, like the sized plan's
        assert runs_plan.sizes_array[0] == 100

    def test_copies_keep_working(self):
        runs_plan, sized = self._pair()
        back = pickle.loads(pickle.dumps(runs_plan))
        assert back == sized
        assert back.sizes_array.tobytes() == sized.sizes_array.tobytes()
        moved = dataclasses.replace(runs_plan, n_bots=5)
        assert moved.sizes_array.tobytes() == sized.sizes_array.tobytes()
        with pytest.raises(PlanError, match="sum"):
            dataclasses.replace(runs_plan, n_clients=806)

    @pytest.mark.parametrize(
        "runs, n_clients",
        [
            (((3, 2), (4, 1)), 11),  # sums to 10
            (((-1, 1), (7, 1)), 6),  # a negative size
        ],
    )
    def test_bad_runs_raise_what_the_sizes_raise(self, runs, n_clients):
        with pytest.raises(PlanError) as from_sizes:
            ShufflePlan(
                group_sizes=_expand_runs(runs), n_clients=n_clients, n_bots=0
            )
        with pytest.raises(PlanError) as from_runs:
            _plan_from_runs(runs, n_clients, 0, 0.0, "greedy")
        assert str(from_runs.value) == str(from_sizes.value)


class TestExpandRuns:
    """``_expand_runs`` is the plan's sizes, replica by replica, for any
    runs the planners build (empty runs included)."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 300)),
            max_size=5,
        )
    )
    def test_matches_the_naive_expansion(self, runs):
        expected = tuple(
            size for size, count in runs for _ in range(count)
        )
        sizes = _expand_runs(tuple(runs))
        assert sizes == expected
        assert type(sizes) is tuple
        assert all(type(size) is int for size in sizes)
