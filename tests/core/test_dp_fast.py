"""Tests for the separable (max,+) dynamic program."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import planner
from repro.core.dp_fast import dp_fast_sizes, dp_fast_value
from repro.core.objective import expected_saved_sizes

plan_dp_fast = planner("dp_fast")
plan_even = planner("even")
plan_greedy = planner("greedy")


def brute_force_optimum(n: int, m: int, p: int) -> float:
    """Enumerate every partition of n into p ordered non-negative parts."""
    best = -1.0
    for cuts in itertools.combinations_with_replacement(range(n + 1), p - 1):
        parts = []
        prev = 0
        for cut in cuts:
            parts.append(cut - prev)
            prev = cut
        parts.append(n - prev)
        if any(size < 0 for size in parts):
            continue
        best = max(best, expected_saved_sizes(parts, n, m))
    return best


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "n,m,p",
        [
            (6, 0, 2),
            (6, 1, 2),
            (8, 2, 3),
            (9, 3, 3),
            (10, 1, 4),
            (7, 7, 2),
            (12, 4, 2),
        ],
    )
    def test_value_matches_enumeration(self, n, m, p):
        assert dp_fast_value(n, m, p) == pytest.approx(
            brute_force_optimum(n, m, p), abs=1e-9
        )


class TestPlanConsistency:
    @given(
        st.integers(0, 60),
        st.integers(0, 12),
        st.integers(1, 8),
    )
    @settings(max_examples=40)
    def test_sizes_partition_clients(self, n, m, p):
        m = min(m, n)
        sizes = dp_fast_sizes(n, m, p)
        assert len(sizes) == p
        assert sum(sizes) == n
        assert all(size >= 0 for size in sizes)

    @given(
        st.integers(1, 60),
        st.integers(0, 12),
        st.integers(1, 8),
    )
    @settings(max_examples=40)
    def test_plan_value_equals_dp_value(self, n, m, p):
        m = min(m, n)
        plan = plan_dp_fast(n, m, p)
        assert plan.expected_saved == pytest.approx(
            dp_fast_value(n, m, p), abs=1e-9
        )
        assert plan.algorithm == "dp_fast"


class TestDominance:
    @given(
        st.integers(1, 80),
        st.integers(0, 20),
        st.integers(1, 10),
    )
    @settings(max_examples=40)
    def test_dominates_greedy_and_even(self, n, m, p):
        m = min(m, n)
        optimum = dp_fast_value(n, m, p)
        assert optimum >= plan_greedy(n, m, p).expected_saved - 1e-9
        assert optimum >= plan_even(n, m, p).expected_saved - 1e-9

    def test_p_exceeding_clients_isolates_everyone(self):
        # P >= N: every client can get an exclusive replica, so the only
        # losses are the bots themselves.
        n, m = 10, 3
        assert dp_fast_value(n, m, 10) == pytest.approx(n - m)


class TestEdges:
    def test_zero_clients(self):
        assert dp_fast_value(0, 0, 3) == 0.0
        assert dp_fast_sizes(0, 0, 3) == [0, 0, 0]

    def test_single_replica(self):
        assert dp_fast_value(9, 2, 1) == pytest.approx(0.0)
        assert dp_fast_sizes(9, 2, 1) == [9]

    def test_validation(self):
        with pytest.raises(ValueError):
            dp_fast_value(5, 6, 2)
        with pytest.raises(ValueError):
            dp_fast_value(5, 2, 0)
        with pytest.raises(ValueError):
            dp_fast_value(-1, 0, 1)

    def test_paper_scale_runs_fast(self):
        # Figure 3's largest cell: 1000 clients, 200 replicas.
        value = dp_fast_value(1000, 100, 200)
        assert value > 0
