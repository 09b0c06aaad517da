"""Tests for the weighted (non-uniform sizes) bot-count estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import EstimateRequest, estimate
from repro.core.estimator import attacked_count_pmf
from repro.core.greedy import greedy_sizes


def estimate_mle(n_attacked: int, n_replicas: int, upper_bound: int):
    return estimate(
        EstimateRequest(n_attacked, n_replicas, upper_bound, method="mle")
    )


def estimate_weighted(n_attacked: int, sizes, n_clients: int):
    return estimate(
        EstimateRequest(
            n_attacked, sizes=sizes, n_clients=n_clients, method="weighted"
        )
    )


class TestAttackedCountPmf:
    def test_normalized(self):
        pmf = attacked_count_pmf([5, 5, 10, 0], 20, 3)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf.min() >= 0.0

    def test_no_bots_means_no_attacks(self):
        pmf = attacked_count_pmf([4, 4, 4], 12, 0)
        assert pmf[0] == pytest.approx(1.0)

    def test_empty_replicas_cannot_be_attacked(self):
        pmf = attacked_count_pmf([12, 0, 0], 12, 2)
        # Only the one non-empty replica can be attacked, and it must be.
        assert pmf[1] == pytest.approx(1.0)
        assert pmf[2:].sum() == pytest.approx(0.0, abs=1e-12)

    def test_marginals_exact_for_single_replica(self):
        from repro.core.combinatorics import survival_probability

        pmf = attacked_count_pmf([3, 17], 20, 4)
        # P[X = 0] is exactly both replicas clean only when M=0; here the
        # approximation's X=0 mass must equal prod of survival marginals.
        p_small = survival_probability(20, 4, 3)
        p_big = survival_probability(20, 4, 17)
        assert pmf[0] == pytest.approx(p_small * p_big)

    def test_expectation_is_exact(self, rng):
        """E[X] = sum of marginal attack probabilities holds exactly
        (linearity), even though the joint pmf is approximated."""
        sizes = np.array([2, 2, 2, 2, 12])
        n, m = 20, 3
        trials = 40_000
        total = 0
        for _ in range(trials):
            bots = rng.multivariate_hypergeometric(sizes, m)
            total += int((bots > 0).sum())
        measured_mean = total / trials
        pmf = attacked_count_pmf(sizes, n, m)
        predicted_mean = float(
            (np.arange(pmf.size) * pmf).sum()
        )
        assert measured_mean == pytest.approx(predicted_mean, rel=0.02)

    def test_bulk_shape_at_realistic_scale(self, rng):
        """At defense-sized instances (many replicas) the independence
        approximation tracks the true attacked-count distribution."""
        sizes = np.array([10] * 60 + [400])
        n, m = 1_000, 40
        counts = np.zeros(sizes.size + 1)
        trials = 4_000
        for _ in range(trials):
            bots = rng.multivariate_hypergeometric(sizes, m)
            counts[(bots > 0).sum()] += 1
        measured = counts / trials
        predicted = attacked_count_pmf(sizes, n, m)
        assert np.abs(measured - predicted).max() < 0.08


class TestWeightedEstimator:
    def test_zero_attacked(self):
        estimate = estimate_weighted(0, [5, 5, 5], 15)
        assert estimate.m_hat == 0

    def test_all_nonempty_attacked_is_degenerate(self):
        estimate = estimate_weighted(2, [5, 10, 0], 15)
        assert estimate.degenerate
        assert estimate.m_hat == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            estimate_weighted(1, [5, 5], 11)
        with pytest.raises(ValueError, match="within"):
            estimate_weighted(3, [5, 5], 10)
        with pytest.raises(ValueError, match="non-empty"):
            estimate_weighted(2, [10, 0], 10)

    def test_matches_uniform_mle_on_uniform_sizes(self, rng):
        n_replicas, n_clients = 25, 500
        sizes = [n_clients // n_replicas] * n_replicas
        for true_bots in (10, 30):
            bots = rng.multivariate_hypergeometric(
                np.asarray(sizes), true_bots
            )
            attacked = int((bots > 0).sum())
            if attacked in (0, n_replicas):
                continue
            uniform = estimate_mle(attacked, n_replicas, n_clients)
            weighted = estimate_weighted(attacked, sizes, n_clients)
            assert weighted.m_hat == pytest.approx(
                uniform.m_hat, rel=0.25, abs=4
            )

    def test_recovers_truth_on_greedy_sizes(self, rng):
        """The case the uniform MLE cannot handle: a greedy plan with a
        quarantine bucket."""
        n_clients, true_bots, n_replicas = 1_000, 60, 80
        sizes = greedy_sizes(n_clients, true_bots, n_replicas)
        errors = []
        for _ in range(20):
            bots = rng.multivariate_hypergeometric(
                np.asarray(sizes), true_bots
            )
            attacked = int((bots > 0).sum())
            nonempty = sum(1 for size in sizes if size > 0)
            if attacked in (0, nonempty):
                continue
            estimate = estimate_weighted(attacked, sizes, n_clients)
            errors.append(estimate.m_hat - true_bots)
        assert errors, "expected informative observations"
        assert abs(float(np.mean(errors))) < 0.35 * true_bots

    def test_weighted_beats_uniform_on_skewed_sizes(self, rng):
        """With a huge quarantine bucket, the uniform occupancy MLE is
        systematically biased; the weighted estimator is not."""
        n_clients, true_bots = 1_000, 60
        sizes = greedy_sizes(n_clients, true_bots, 80)
        nonempty = sum(1 for size in sizes if size > 0)
        uniform_errors, weighted_errors = [], []
        for _ in range(25):
            bots = rng.multivariate_hypergeometric(
                np.asarray(sizes), true_bots
            )
            attacked = int((bots > 0).sum())
            if attacked in (0, nonempty):
                continue
            uniform = estimate_mle(attacked, len(sizes), n_clients)
            weighted = estimate_weighted(attacked, sizes, n_clients)
            uniform_errors.append(abs(uniform.m_hat - true_bots))
            weighted_errors.append(abs(weighted.m_hat - true_bots))
        assert np.mean(weighted_errors) <= np.mean(uniform_errors)
