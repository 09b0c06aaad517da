"""Tests for the paper-literal Algorithm 1 dynamic program."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import combinatorics, dp
from repro.core.api import planner
from repro.core.dp import dp_value, optimal_assign
from repro.core.dp_fast import dp_fast_value
from repro.core.objective import expected_saved

plan_dp = planner("dp")
plan_greedy = planner("greedy")


class TestBaseCases:
    def test_single_replica_no_bots(self):
        assert dp_value(7, 0, 1) == pytest.approx(7.0)

    def test_single_replica_with_bots(self):
        assert dp_value(7, 2, 1) == pytest.approx(0.0)

    def test_no_bots_many_replicas(self):
        assert dp_value(9, 0, 3) == pytest.approx(9.0)

    def test_all_bots(self):
        assert dp_value(6, 6, 3) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dp_value(5, 6, 2)
        with pytest.raises(ValueError):
            dp_value(5, 1, 0)


class TestKnownValues:
    def test_two_replicas_one_bot_four_clients(self):
        # Static optimum: sizes (1,3) or (2,2) -> E = 1.5 vs 2*2*(1/2)=2.0.
        # Adaptive DP can also react, but with N=4, M=1 the best static
        # split (2,2) already achieves 2.0 and adaptivity adds nothing.
        assert dp_value(4, 1, 2) == pytest.approx(2.0)

    def test_adaptive_value_upper_bounds_static(self):
        # The documented reproduction finding (DESIGN.md §5.2).
        adaptive = dp_value(12, 3, 3)
        static = dp_fast_value(12, 3, 3)
        assert adaptive == pytest.approx(3.0909, abs=1e-3)
        assert static == pytest.approx(3.0545, abs=1e-3)
        assert adaptive > static


class TestOrderings:
    @given(
        st.integers(2, 16),
        st.integers(0, 5),
        st.integers(1, 4),
    )
    @settings(max_examples=30)
    def test_adaptive_geq_static_geq_greedy(self, n, m, p):
        m = min(m, n)
        adaptive = dp_value(n, m, p)
        static = dp_fast_value(n, m, p)
        greedy_value = plan_greedy(n, m, p).expected_saved
        assert adaptive >= static - 1e-9
        assert static >= greedy_value - 1e-9

    @given(st.integers(3, 14), st.integers(1, 4))
    @settings(max_examples=20)
    def test_monotone_in_replicas(self, n, m):
        m = min(m, n)
        values = [dp_value(n, m, p) for p in (1, 2, 3)]
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9

    @given(st.integers(4, 14))
    @settings(max_examples=15)
    def test_monotone_decreasing_in_bots(self, n):
        values = [dp_value(n, m, 3) for m in range(0, min(5, n))]
        for lighter, heavier in zip(values, values[1:]):
            assert heavier <= lighter + 1e-9


class TestTables:
    def test_tables_shape_and_value(self):
        tables = optimal_assign(10, 2, 3)
        assert tables.save_no.shape == (11, 3, 3)
        assert tables.value() == pytest.approx(dp_value(10, 2, 3))

    def test_assign_entries_are_feasible_splits(self):
        tables = optimal_assign(10, 2, 3)
        for i in range(2, 11):
            for j in range(1, 3):
                for k in range(1, 3):
                    a = tables.assign_no[i, j, k]
                    assert 0 <= a <= i


class TestPlanExtraction:
    def test_plan_is_valid_partition(self):
        plan = plan_dp(12, 3, 4)
        assert sum(plan.group_sizes) == 12
        assert plan.n_replicas == 4
        assert plan.algorithm == "dp"

    def test_plan_value_rescored_with_equation1(self):
        plan = plan_dp(12, 3, 3)
        assert plan.expected_saved == pytest.approx(expected_saved(plan))
        # The honest static score can never exceed the static optimum.
        assert plan.expected_saved <= dp_fast_value(12, 3, 3) + 1e-9

    def test_plan_no_bots(self):
        plan = plan_dp(8, 0, 2)
        assert plan.expected_saved == pytest.approx(8.0)


class TestSharedLogFactorialTable:
    def test_rows_read_the_shared_table_and_build_none(self, monkeypatch):
        # Every row gathers log t! from combinatorics' table: once it
        # covers N, filling the tables evaluates no gammaln at all, and
        # gives the bits a fresh per-row gammaln table gave.
        first = optimal_assign(24, 5, 3)  # may grow the table
        combinatorics._log_factorials(24)
        vector_lgamma = combinatorics._VECTOR_LGAMMA
        calls = []

        def counted(values):
            calls.append(np.size(values))
            return vector_lgamma(values)

        monkeypatch.setattr(combinatorics, "_VECTOR_LGAMMA", counted)
        tables = optimal_assign(24, 5, 3)
        assert calls == []

        def per_row_table(top):
            return vector_lgamma(np.arange(top + 1, dtype=np.float64) + 1.0)

        monkeypatch.setattr(dp, "_log_factorials", per_row_table)
        rebuilt = optimal_assign(24, 5, 3)
        for got in (tables, first):
            assert got.save_no.tobytes() == rebuilt.save_no.tobytes()
            assert got.assign_no.tobytes() == rebuilt.assign_no.tobytes()
