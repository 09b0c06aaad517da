"""Unit and property tests for the Equation 1 objective."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.combinatorics import expected_saved_single_many
from repro.core.objective import (
    expected_saved,
    expected_saved_sizes,
    single_replica_optimum,
)
from repro.core.plan import ShufflePlan


class TestExpectedSaved:
    def test_no_bots_saves_everyone(self):
        assert expected_saved_sizes([4, 6], 10, 0) == pytest.approx(10.0)

    def test_single_group_with_bots_saves_nothing(self):
        # All clients on one replica, at least one bot: E(S) = 0.
        assert expected_saved_sizes([10], 10, 3) == pytest.approx(0.0)

    def test_manual_two_replica_case(self):
        # N=4, M=1, sizes (1, 3): E = 1*(3/4) + 3*(1/4) = 1.5.
        assert expected_saved_sizes([1, 3], 4, 1) == pytest.approx(1.5)

    def test_plan_uses_own_belief_by_default(self):
        plan = ShufflePlan.from_sizes([1, 3], n_bots=1)
        assert expected_saved(plan) == pytest.approx(1.5)

    def test_plan_scored_against_other_truth(self):
        plan = ShufflePlan.from_sizes([1, 3], n_bots=1)
        # Against the truth M=0 every client is saved.
        assert expected_saved(plan, n_bots=0) == pytest.approx(4.0)

    def test_empty_sizes(self):
        assert expected_saved_sizes([], 0, 0) == 0.0

    @given(
        st.integers(2, 40),
        st.integers(0, 10),
        st.integers(1, 6),
        st.integers(0, 1_000),
    )
    def test_equals_sum_of_terms(self, n, m, p, seed):
        m = min(m, n)
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, n + 1, size=p - 1))
        sizes = np.diff(np.concatenate([[0], cuts, [n]]))
        total = expected_saved_sizes(sizes, n, m)
        terms = expected_saved_single_many(n, m, sizes)
        assert total == pytest.approx(terms.sum())
        assert total <= n - m + 1e-9  # cannot save more than the benign

    def test_matches_monte_carlo(self, rng):
        n, m = 30, 5
        sizes = [3, 3, 3, 3, 3, 15]
        trials = 20_000
        saved = 0
        labels = np.zeros(n, dtype=bool)
        labels[:m] = True  # first m are bots
        boundaries = np.cumsum([0] + sizes)
        for _ in range(trials):
            perm = rng.permutation(labels)
            for lo, hi in zip(boundaries[:-1], boundaries[1:]):
                group = perm[lo:hi]
                if not group.any():
                    saved += hi - lo
        expected = expected_saved_sizes(sizes, n, m)
        assert saved / trials == pytest.approx(expected, rel=0.05)


class TestSingleReplicaOptimum:
    def test_no_bots_takes_everyone(self):
        omega, value = single_replica_optimum(50, 0)
        assert omega == 50
        assert value == pytest.approx(50.0)

    def test_no_clients(self):
        assert single_replica_optimum(0, 0) == (0, 0.0)

    @pytest.mark.parametrize(
        "n_clients, n_bots", [(0, 5), (0, -1), (3, 5), (-1, 0)]
    )
    def test_bot_count_outside_the_population_raises(self, n_clients, n_bots):
        # Validated before the n_clients <= 0 early return, which used to
        # answer (0, 0.0) for five bots among no clients.
        with pytest.raises(ValueError, match="n_bots"):
            single_replica_optimum(n_clients, n_bots)

    def test_omega_near_n_over_m(self):
        # For the x*exp(-Mx/N) approximation the peak is near N/M.
        omega, _ = single_replica_optimum(1000, 100)
        assert 5 <= omega <= 20

    def test_value_is_actual_maximum(self):
        n, m = 60, 7
        omega, value = single_replica_optimum(n, m)
        f = expected_saved_single_many(n, m, np.arange(n + 1))
        best = f[1:].max()
        assert value == pytest.approx(best)
        assert f[omega] == pytest.approx(best)

    @given(st.integers(1, 120), st.integers(0, 30))
    def test_omega_in_range(self, n, m):
        m = min(m, n)
        omega, value = single_replica_optimum(n, m)
        assert 0 <= omega <= n
        assert value >= 0
