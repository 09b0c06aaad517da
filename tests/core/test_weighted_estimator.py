"""The attacked-count likelihood over a plan's actual group sizes.

``attacked_count_log_likelihood`` is what the posterior multiplies in
whenever an attack comes out of the last plan (``method == "weighted"``);
summed over every ``X`` it is the whole Poisson-binomial pmf.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import attacked_count_log_likelihood


def attacked_count_pmf(sizes, n_clients: int, n_bots: int) -> np.ndarray:
    """``P[X = x]`` for every ``x`` in ``0..len(sizes)``."""
    return np.exp([
        attacked_count_log_likelihood(sizes, n_clients, n_bots, x)
        for x in range(len(sizes) + 1)
    ])


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
        from repro.core.combinatorics import survival_probabilities

        pmf = attacked_count_pmf([3, 17], 20, 4)
        # P[X = 0] is exactly both replicas clean only when M=0; here the
        # approximation's X=0 mass must equal prod of survival marginals.
        p_small, p_big = survival_probabilities(20, 4, np.array([3, 17]))
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
