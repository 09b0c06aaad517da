"""Cross-cutting property tests over the optimization stack.

These encode the model's structural truths once, over random instances,
rather than per-module examples: dominance orderings, monotonicities, and
conservation laws that must survive any future refactor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import planner
from repro.core.dp_fast import dp_fast_value
from repro.core.objective import expected_saved_sizes

plan_greedy = planner("greedy")
plan_even = planner("even")


small_instances = st.tuples(
    st.integers(1, 120),  # clients
    st.integers(0, 40),  # bots (clipped)
    st.integers(1, 15),  # replicas
)


class TestDominanceChain:
    @given(small_instances)
    @settings(max_examples=60)
    def test_optimal_geq_greedy_geq_even(self, instance):
        n, m, p = instance
        m = min(m, n)
        optimal = dp_fast_value(n, m, p)
        greedy = plan_greedy(n, m, p).expected_saved
        even = plan_even(n, m, p).expected_saved
        assert optimal + 1e-9 >= greedy >= even - 1e-9

    @given(small_instances)
    @settings(max_examples=40)
    def test_objective_bounded_by_benign(self, instance):
        n, m, p = instance
        m = min(m, n)
        assert dp_fast_value(n, m, p) <= (n - m) + 1e-9


class TestMonotonicity:
    @given(st.integers(2, 80), st.integers(0, 20), st.integers(1, 8))
    @settings(max_examples=40)
    def test_optimal_monotone_in_replicas(self, n, m, p):
        m = min(m, n)
        assert (
            dp_fast_value(n, m, p + 1) >= dp_fast_value(n, m, p) - 1e-9
        )

    @given(st.integers(2, 80), st.integers(0, 19), st.integers(1, 8))
    @settings(max_examples=40)
    def test_optimal_monotone_in_bots(self, n, m, p):
        m = min(m, n - 1)
        assert (
            dp_fast_value(n, m + 1, p) <= dp_fast_value(n, m, p) + 1e-9
        )

    @given(st.integers(1, 60), st.integers(0, 15), st.integers(1, 10))
    @settings(max_examples=40)
    def test_greedy_scale_consistency(self, n, m, p):
        """A plan's value never exceeds what P full isolation achieves."""
        m = min(m, n)
        value = plan_greedy(n, m, p).expected_saved
        isolation = dp_fast_value(n, m, n) if n >= 1 else 0.0
        assert value <= isolation + 1e-9


class TestPermutationInvariance:
    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=8),
        st.integers(0, 10),
        st.integers(0, 2_000),
    )
    @settings(max_examples=40)
    def test_objective_is_symmetric_in_groups(self, sizes, m, seed):
        n = sum(sizes)
        m = min(m, n)
        baseline = expected_saved_sizes(sizes, n, m)
        rng = np.random.default_rng(seed)
        shuffled = list(sizes)
        rng.shuffle(shuffled)
        assert expected_saved_sizes(shuffled, n, m) == pytest.approx(
            baseline
        )

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=8),
        st.integers(0, 10),
    )
    @settings(max_examples=40)
    def test_empty_groups_are_free(self, sizes, m):
        n = sum(sizes)
        m = min(m, n)
        padded = list(sizes) + [0, 0, 0]
        assert expected_saved_sizes(padded, n, m) == pytest.approx(
            expected_saved_sizes(sizes, n, m)
        )


class TestMergingHurts:
    @given(
        st.lists(st.integers(1, 20), min_size=3, max_size=6),
        st.integers(1, 8),
    )
    @settings(max_examples=40)
    def test_merging_two_groups_never_helps(self, sizes, m):
        """Splitting is (weakly) good: merging the two smallest groups
        cannot increase E[S] when bots are present.

        Follows from f(a) + f(b) >= f(a+b): survival of the merged group
        requires both halves bot-free, so each client's saving
        probability only drops.
        """
        n = sum(sizes)
        m = min(m, n)
        if m == 0:
            return
        merged = sorted(sizes)
        a = merged.pop(0)
        merged[0] += a
        assert (
            expected_saved_sizes(merged, n, m)
            <= expected_saved_sizes(sizes, n, m) + 1e-9
        )
