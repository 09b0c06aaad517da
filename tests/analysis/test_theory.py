"""Tests for Theorem 1 and the closed-form expectations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import (
    all_attacked_with_high_probability,
    expected_saved_fraction_even,
    expected_unattacked_replicas,
    max_estimable_bots,
    min_replicas_for_bots,
)


class TestExpectedUnattacked:
    def test_no_bots(self):
        assert expected_unattacked_replicas(10, 0) == pytest.approx(10.0)

    def test_formula(self):
        # P (1 - 1/P)^M
        assert expected_unattacked_replicas(4, 3) == pytest.approx(
            4 * (0.75) ** 3
        )

    def test_single_replica(self):
        assert expected_unattacked_replicas(1, 0) == 1.0
        assert expected_unattacked_replicas(1, 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_unattacked_replicas(0, 3)
        with pytest.raises(ValueError):
            expected_unattacked_replicas(3, -1)

    def test_matches_simulation(self, rng):
        p, m, trials = 20, 30, 5_000
        free_counts = []
        for _ in range(trials):
            bins = rng.integers(0, p, size=m)
            free_counts.append(p - len(set(bins.tolist())))
        expected = expected_unattacked_replicas(p, m)
        assert np.mean(free_counts) == pytest.approx(expected, rel=0.05)


class TestTheorem1:
    def test_threshold_value(self):
        # log_{1-1/P}(1/P) with P=10: ln(0.1)/ln(0.9) ~ 21.85
        assert max_estimable_bots(10) == pytest.approx(21.854, abs=1e-2)

    def test_threshold_is_exactly_e_x_equals_one(self):
        # At M = threshold, E[unattacked] = 1 by construction.
        for p in (5, 20, 100):
            m_star = max_estimable_bots(p)
            expected = p * (1 - 1 / p) ** m_star
            assert expected == pytest.approx(1.0, rel=1e-9)

    @given(st.integers(2, 10_000))
    def test_threshold_grows_with_replicas(self, p):
        assert max_estimable_bots(p + 1) > max_estimable_bots(p)

    def test_high_probability_predicate(self):
        p = 100
        threshold = max_estimable_bots(p)
        assert not all_attacked_with_high_probability(p, int(threshold) - 1)
        assert all_attacked_with_high_probability(p, int(threshold) + 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_estimable_bots(1)


class TestMinReplicas:
    @given(st.integers(0, 5_000))
    @settings(max_examples=30)
    def test_inverse_of_threshold(self, m):
        p = min_replicas_for_bots(m)
        assert max_estimable_bots(p) >= m
        if p > 2:
            assert max_estimable_bots(p - 1) < m

    def test_small_counts(self):
        assert min_replicas_for_bots(0) == 2
        assert min_replicas_for_bots(1) == 2

    def test_paper_scale(self):
        # 100K bots: the defense needs on the order of 10^4 replicas
        # before the MLE regime is informative (P ln P ~ M).
        p = min_replicas_for_bots(100_000)
        assert 5_000 < p < 50_000

    def test_validation(self):
        with pytest.raises(ValueError):
            min_replicas_for_bots(-1)


class TestEvenSavedFraction:
    def test_zero_when_no_benign(self):
        assert expected_saved_fraction_even(10, 10, 5) == 0.0

    def test_matches_even_plan(self):
        from repro.core.api import planner

        fraction = expected_saved_fraction_even(1000, 100, 200)
        plan = planner("even")(1000, 100, 200)
        assert fraction == pytest.approx(plan.expected_saved / 900)

    def test_collapse_regime(self):
        assert expected_saved_fraction_even(1000, 500, 100) < 0.01
