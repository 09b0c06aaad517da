"""Tests for the even-distribution baseline."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import planner
from repro.core.even import even_sizes

plan_even = planner("even")


class TestEvenSizes:
    @given(st.integers(0, 10_000), st.integers(1, 500))
    def test_partition_and_balance(self, n, p):
        sizes = even_sizes(n, p)
        assert len(sizes) == p
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

    def test_exact_division(self):
        assert even_sizes(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread(self):
        assert even_sizes(10, 3) == [4, 3, 3]

    def test_more_replicas_than_clients(self):
        sizes = even_sizes(3, 5)
        assert sorted(sizes, reverse=True) == [1, 1, 1, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            even_sizes(10, 0)
        with pytest.raises(ValueError):
            even_sizes(-1, 3)


class TestEvenPlan:
    def test_metadata(self):
        plan = plan_even(100, 10, 4)
        assert plan.algorithm == "even"
        assert plan.n_replicas == 4

    def test_collapse_when_bots_exceed_replicas(self):
        """Figure 4's phenomenon, at the closed-form level."""
        plan = plan_even(1000, 500, 100)
        # With 5x more bots than replicas, essentially every group of 10
        # contains a bot: expected saved is a sliver of the 500 benign.
        assert plan.expected_saved < 5.0

    def test_competitive_when_replicas_exceed_bots(self):
        plan = plan_even(1000, 50, 200)
        # The paper's regime where even ~ greedy: most groups stay clean.
        assert plan.expected_saved > 0.7 * 950
