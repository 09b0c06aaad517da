"""Edge-of-domain and paper-scale stability tests for combinatorics.

Covers the boundary configurations the shuffling model actually hits —
no bots (``M = 0``), all bots (``M = N``), empty replicas (``x_i = 0``),
one replica holding everyone (``x_i = N``) — plus log-space stability at
the paper's largest scale, ``N = 150,000`` (Section VI-A), where exact
binomial coefficients overflow any fixed-width float.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.combinatorics import (
    expected_saved_single_few,
    expected_saved_single_many,
    hypergeometric_pmf_vector,
    log_binomial,
    survival_probabilities,
)

PAPER_N = 150_000


class TestNoBots:
    """``M = 0``: every replica is trivially bot-free."""

    def test_survival_is_one_for_every_group_size(self):
        xs = np.array([0, 1, 17, 99, 100])
        assert (survival_probabilities(100, 0, xs) == 1.0).all()

    def test_vectorized_matches(self):
        xs = np.array([0, 1, 50, 100])
        np.testing.assert_array_equal(
            survival_probabilities(100, 0, xs), np.ones(4)
        )

    def test_expected_saved_equals_group_size(self):
        assert expected_saved_single_many(100, 0, np.array([37]))[0] == 37.0
        assert expected_saved_single_few(100, 0, [37]) == [37.0]


class TestAllBots:
    """``M = N``: every nonempty replica is attacked with certainty."""

    def test_nonempty_groups_never_survive(self):
        xs = np.array([1, 50, 100])
        assert (survival_probabilities(100, 100, xs) == 0.0).all()

    def test_empty_group_survives(self):
        # C(N - 0, N) / C(N, N) = 1: no clients, nothing to attack.
        assert survival_probabilities(100, 100, np.array([0]))[0] == 1.0

    def test_vectorized_matches_scalar(self):
        """The scalar side is the exact ``math.comb`` ratio."""
        xs = np.array([0, 1, 99, 100])
        expected = [
            math.comb(100 - int(x), 100) / math.comb(100, 100) for x in xs
        ]
        np.testing.assert_array_equal(
            survival_probabilities(100, 100, xs), expected
        )


class TestGroupSizeBoundaries:
    """``x_i = 0`` and ``x_i = N`` for intermediate bot counts."""

    def test_empty_group_always_survives(self):
        for m in (0, 1, 50, 100):
            assert survival_probabilities(100, m, np.array([0]))[0] == 1.0

    def test_full_group_survives_iff_no_bots(self):
        assert survival_probabilities(100, 0, np.array([100]))[0] == 1.0
        for m in (1, 2, 100):
            assert survival_probabilities(100, m, np.array([100]))[0] == 0.0

    def test_out_of_range_arguments_raise(self):
        with pytest.raises(ValueError):
            survival_probabilities(100, 5, np.array([101]))
        with pytest.raises(ValueError):
            survival_probabilities(100, 5, np.array([-1]))
        with pytest.raises(ValueError):
            survival_probabilities(100, 101, np.array([5]))


class TestPaperScaleStability:
    """Log-space results stay finite and within [0, 1] at N = 150,000."""

    def test_log_binomial_is_finite_at_paper_scale(self):
        value = log_binomial(PAPER_N, PAPER_N // 2)
        assert math.isfinite(value)
        # C(150000, 75000) ≈ 10^45150 — hopeless outside log-space.
        assert value > 1e5

    def test_survival_probabilities_valid_at_paper_scale(self):
        m = 100_000  # paper's Figure 9/10 bot counts reach 10^5
        xs = np.array([0, 1, 10, 150, 1_000, 50_000, PAPER_N - m])
        probs = survival_probabilities(PAPER_N, m, xs)
        assert np.isfinite(probs).all()
        assert (probs >= 0.0).all()
        assert (probs <= 1.0).all()
        # Larger groups are strictly more likely to catch a bot.
        assert (np.diff(probs) <= 0).all()

    def test_scalar_and_vector_paths_agree_at_paper_scale(self):
        """The scalar side is the exact ``math.comb`` ratio, rounded once."""
        m = 5_000
        for x in (1, 150, 30_000):
            np.testing.assert_allclose(
                survival_probabilities(PAPER_N, m, np.array([x]))[0],
                math.comb(PAPER_N - x, m) / math.comb(PAPER_N, m),
                rtol=1e-8,  # gammaln vs lgamma ulps of log C(N, m)
            )

    def test_expected_saved_finite_at_paper_scale(self):
        xs = np.arange(0, 2_000, 37)
        values = expected_saved_single_many(PAPER_N, 100_000, xs)
        assert np.isfinite(values).all()
        assert (values >= 0.0).all()
        assert (values <= xs).all()

    def test_hypergeometric_pmf_normalised_at_paper_scale(self):
        # Full pmf over a 1500-client replica drawn from 150K clients.
        pmf = hypergeometric_pmf_vector(PAPER_N, 1_000, 1_500)
        assert np.isfinite(pmf).all()
        assert (pmf >= 0.0).all()
        assert (pmf <= 1.0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_hypergeometric_pmf_boundary_hits(self):
        assert hypergeometric_pmf_vector(PAPER_N, 0, 1_000).tolist() == [1.0]
        assert hypergeometric_pmf_vector(PAPER_N, PAPER_N, 1_000)[1_000] == 1.0
        assert hypergeometric_pmf_vector(PAPER_N, 1, 0).tolist() == [1.0]
        # Impossible: more hits than draws — past the pmf's support.
        assert hypergeometric_pmf_vector(PAPER_N, 10, 5).size == 6
