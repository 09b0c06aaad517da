"""Tests for attack-scale estimation (the occupancy pmf and its MLE)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import estimate as estimate_mle
from repro.core.estimator import occupancy_likelihoods, occupancy_pmf


def brute_force_occupancy(n_balls: int, n_bins: int) -> np.ndarray:
    """Occupancy pmf by enumerating all bin assignments (tiny cases)."""
    counts = np.zeros(n_bins + 1)
    total = 0
    for assignment in itertools.product(range(n_bins), repeat=n_balls):
        counts[len(set(assignment))] += 1
        total += 1
    return counts / max(total, 1)


class TestOccupancyPmf:
    @pytest.mark.parametrize("n_balls,n_bins", [(0, 3), (1, 3), (2, 2),
                                                (3, 3), (4, 2), (5, 3)])
    def test_matches_enumeration(self, n_balls, n_bins):
        pmf = occupancy_pmf(n_balls, n_bins)
        reference = brute_force_occupancy(n_balls, n_bins)
        np.testing.assert_allclose(pmf, reference, atol=1e-12)

    @given(st.integers(0, 60), st.integers(1, 25))
    def test_normalized(self, n_balls, n_bins):
        pmf = occupancy_pmf(n_balls, n_bins)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf.min() >= 0.0

    def test_zero_balls(self):
        pmf = occupancy_pmf(0, 4)
        assert pmf[0] == 1.0

    def test_cannot_occupy_more_bins_than_balls(self):
        pmf = occupancy_pmf(3, 10)
        assert pmf[4:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            occupancy_pmf(3, 0)
        with pytest.raises(ValueError):
            occupancy_pmf(-1, 3)


class TestOccupancyLikelihoods:
    def test_column_matches_pmf(self):
        n_bins, upper, x = 6, 15, 3
        likelihoods = occupancy_likelihoods(x, n_bins, upper)
        for m in range(upper + 1):
            assert likelihoods[m] == pytest.approx(
                occupancy_pmf(m, n_bins)[x]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            occupancy_likelihoods(7, 6, 10)

    @pytest.mark.parametrize("n_bins", [0, -2])
    def test_rejects_an_empty_pool_in_occupancy_pmfs_words(self, n_bins):
        # Was [1., nan, nan, nan] under two RuntimeWarnings at n_bins = 0.
        with pytest.raises(ValueError) as pmf_error:
            occupancy_pmf(3, n_bins)
        with pytest.raises(ValueError) as error:
            occupancy_likelihoods(0, n_bins, 3)
        assert str(error.value) == str(pmf_error.value)

    @pytest.mark.parametrize("upper", [-1, -3])
    def test_rejects_a_negative_upper(self, upper):
        # Was an empty array at -1 and islice's own complaint at -3.
        with pytest.raises(ValueError, match=f"upper={upper} must be >= 0"):
            occupancy_likelihoods(2, 6, upper)


class TestMle:
    def test_zero_attacked_means_zero_bots(self):
        estimate = estimate_mle(0, 50, 1000)
        assert estimate.m_hat == 0
        assert not estimate.degenerate

    def test_degenerate_when_all_attacked(self):
        estimate = estimate_mle(50, 50, 5000)
        assert estimate.degenerate
        assert estimate.m_hat == 5000  # collapses to the upper bound

    def test_estimate_at_least_observed(self):
        estimate = estimate_mle(7, 30, 500)
        assert estimate.m_hat >= 7

    def test_accurate_in_informative_regime(self, rng):
        """Figure 7's left region: estimate tracks the truth closely."""
        n_bins, real_bots, trials = 100, 80, 25
        errors = []
        for _ in range(trials):
            bins = rng.integers(0, n_bins, size=real_bots)
            attacked = len(set(bins.tolist()))
            estimate = estimate_mle(attacked, n_bins, 10_000)
            errors.append(estimate.m_hat - real_bots)
        mean_error = np.mean(errors)
        assert abs(mean_error) < 0.25 * real_bots

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_mle(5, 4, 100)
        with pytest.raises(ValueError):
            estimate_mle(5, 10, 3)

    @given(st.integers(1, 15), st.integers(2, 16))
    @settings(max_examples=25)
    def test_mle_maximizes_likelihood(self, x, p):
        if x >= p:
            return
        upper = 60
        estimate = estimate_mle(x, p, upper)
        likelihoods = occupancy_likelihoods(x, p, upper)
        best = max(
            range(x, upper + 1), key=lambda m: likelihoods[m]
        )
        assert likelihoods[estimate.m_hat] == pytest.approx(
            likelihoods[best]
        )


@pytest.mark.parametrize("n_replicas", [0, -2])
def test_mle_rejects_an_empty_pool_in_occupancy_pmfs_words(n_replicas):
    # mle returned m_hat = 0 with log-likelihood 0.0 at P = 0.
    with pytest.raises(ValueError) as pmf_error:
        occupancy_pmf(3, n_replicas)
    with pytest.raises(ValueError) as error:
        estimate_mle(0, n_replicas, 5)
    assert str(error.value) == str(pmf_error.value)


@given(st.integers(-1, 12), st.integers(-1, 12), st.integers(-1, 60))
@settings(max_examples=300, deadline=None)
def test_mle_respects_its_inputs(n_attacked, n_replicas, upper_bound):
    """It raises outside ``1 <= P``, ``0 <= X <= min(P, upper_bound)``,
    and inside returns ``X <= m_hat <= upper_bound``; a degenerate
    estimate is exactly ``upper_bound``."""
    if not (n_replicas >= 1 and 0 <= n_attacked <= n_replicas
            and n_attacked <= upper_bound):
        with pytest.raises(ValueError):
            estimate_mle(n_attacked, n_replicas, upper_bound)
        return
    result = estimate_mle(n_attacked, n_replicas, upper_bound)
    assert n_attacked <= result.m_hat <= upper_bound
    if result.degenerate:
        assert result.m_hat == upper_bound
