"""Tests for the greedy shuffle planner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import planner
from repro.core.dp_fast import dp_fast_value
from repro.core.greedy import greedy_sizes
from repro.core.objective import single_replica_optimum

plan_greedy = planner("greedy")
plan_even = planner("even")


class TestPartitionValidity:
    @given(
        st.integers(0, 500),
        st.integers(0, 100),
        st.integers(1, 50),
    )
    def test_sizes_partition_clients(self, n, m, p):
        m = min(m, n)
        sizes = greedy_sizes(n, m, p)
        assert len(sizes) == p
        assert sum(sizes) == n
        assert all(size >= 0 for size in sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_sizes(10, 11, 2)
        with pytest.raises(ValueError):
            greedy_sizes(10, 1, 0)


class TestBehaviour:
    def test_single_replica_takes_all(self):
        assert greedy_sizes(25, 4, 1) == [25]

    def test_no_bots_spreads_evenly(self):
        # With M=0 every assignment saves everyone; the even-share cap
        # keeps groups balanced rather than dumping everything on one.
        sizes = greedy_sizes(10, 0, 4)
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_quarantine_bucket_when_bots_dominate(self):
        # N=1000, M=100 -> omega ~ 9; 49 small clean groups and one big
        # quarantine bucket on the last replica.
        sizes = greedy_sizes(1000, 100, 50)
        assert sizes[-1] > 100
        assert all(size <= 20 for size in sizes[:-1])

    def test_replica_abundant_regime_uses_every_replica(self):
        # The Figure 3 regression: M=50 bots, P=200 replicas, N=1000.
        # The naive fill-with-omega strategy would leave 150 replicas
        # empty; the capped greedy spreads to all of them.
        sizes = greedy_sizes(1000, 50, 200)
        assert all(size > 0 for size in sizes)

    def test_omega_cap_is_even_share(self):
        n, m, p = 1000, 50, 200
        omega, _ = single_replica_optimum(n, m)
        assert omega > n // p  # precondition: replica-abundant regime
        sizes = greedy_sizes(n, m, p)
        assert max(sizes) <= -(-n // p) + 1


class TestNearOptimality:
    @pytest.mark.parametrize("n_bots", [50, 100, 200, 300, 400, 500])
    @pytest.mark.parametrize("n_replicas", [50, 100, 150, 200])
    def test_figure3_grid_within_one_percent(self, n_bots, n_replicas):
        """The paper's Figure 3 claim: greedy ~= optimal everywhere."""
        n = 1000
        greedy_value = plan_greedy(n, n_bots, n_replicas).expected_saved
        optimal_value = dp_fast_value(n, n_bots, n_replicas)
        benign = n - n_bots
        gap = (optimal_value - greedy_value) / benign
        assert gap <= 0.01

    @given(
        st.integers(1, 100),
        st.integers(0, 30),
        st.integers(1, 12),
    )
    @settings(max_examples=40)
    def test_never_beats_optimal(self, n, m, p):
        m = min(m, n)
        assert (
            plan_greedy(n, m, p).expected_saved
            <= dp_fast_value(n, m, p) + 1e-9
        )


class TestAgainstEven:
    def test_beats_even_when_bots_outnumber_replicas(self):
        # Figure 4's message: with M >> P the even split saves nobody.
        n, m, p = 1000, 400, 100
        greedy_value = plan_greedy(n, m, p).expected_saved
        even_value = plan_even(n, m, p).expected_saved
        assert even_value < 0.05 * (n - m)
        assert greedy_value > 2 * even_value

    def test_close_to_even_when_replicas_outnumber_bots(self):
        n, m, p = 1000, 50, 200
        greedy_value = plan_greedy(n, m, p).expected_saved
        even_value = plan_even(n, m, p).expected_saved
        assert greedy_value >= even_value - 1e-9
        assert greedy_value <= even_value * 1.05


class TestPlanMetadata:
    def test_plan_fields(self):
        plan = plan_greedy(100, 10, 5)
        assert plan.algorithm == "greedy"
        assert plan.n_clients == 100
        assert plan.n_bots == 10
        assert plan.expected_saved > 0
