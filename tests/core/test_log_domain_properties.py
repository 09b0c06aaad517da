"""Property tests for the log-domain combinatorics helpers at scale.

The estimator chain works in log space precisely so that N on the order
of 10^6 clients does not overflow or underflow; these tests pin that
promise directly.  Every identity here is exercised both on small
instances (where a naive linear-space computation is still exact enough
to compare against) and at magnitudes where the naive form would
overflow a float64 — the log-space helpers must stay finite, ordered,
and inside their ranges throughout.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinatorics import (
    hypergeometric_pmf_vector,
    log1mexp,
    log_binomial,
    logsumexp,
    survival_probabilities,
)

#: instance scales from toy to paper-sized (10^6 clients)
huge_n = st.integers(10**5, 10**6)


class TestLogBinomial:
    @given(st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=80)
    def test_matches_exact_math_comb_when_small(self, n, k):
        k = min(k, n)
        exact = math.comb(n, k)
        assert log_binomial(n, k) == pytest.approx(
            math.log(exact), rel=1e-12
        )

    @given(huge_n, st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=40)
    def test_finite_and_symmetric_at_scale(self, n, frac):
        k = int(frac * n)
        value = log_binomial(n, k)
        assert math.isfinite(value)
        # C(n, k) == C(n, n-k) must survive the lgamma formulation.
        assert value == pytest.approx(log_binomial(n, n - k), abs=1e-6)
        # log C(n, k) <= n log 2 (sum of the row of Pascal's triangle).
        assert value <= n * math.log(2.0) + 1e-6

    @given(huge_n)
    @settings(max_examples=20)
    def test_unimodal_peak_at_center(self, n):
        mid = n // 2
        assert log_binomial(n, mid) >= log_binomial(n, mid // 2)
        assert log_binomial(n, mid) >= log_binomial(n, mid + mid // 2)


class TestLogSumExp:
    @given(
        st.lists(
            st.floats(-50.0, 50.0, allow_nan=False), min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=80)
    def test_matches_naive_when_safe(self, values):
        arr = np.array(values, dtype=np.float64)
        naive = math.log(float(np.sum(np.exp(arr))))
        assert logsumexp(arr) == pytest.approx(naive, rel=1e-12)

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=80)
    def test_finite_and_bounded_at_extreme_magnitudes(self, values):
        arr = np.array(values, dtype=np.float64)
        result = logsumexp(arr)
        peak = float(np.max(arr))
        # max <= logsumexp <= max + log(len): never overflows, never
        # loses the dominant term, even when naive exp() would be inf.
        assert peak <= result <= peak + math.log(arr.size) + 1e-9

    def test_empty_is_log_of_zero(self):
        assert logsumexp(np.array([])) == float("-inf")

    def test_all_neg_inf_stays_neg_inf(self):
        arr = np.full(16, -np.inf)
        assert logsumexp(arr) == float("-inf")

    @given(st.floats(-1e9, 700.0, allow_nan=False))
    @settings(max_examples=60)
    def test_shift_invariance(self, shift):
        arr = np.array([-1.0, -2.5, -7.0])
        assert logsumexp(arr + shift) == pytest.approx(
            logsumexp(arr) + shift, rel=1e-12, abs=1e-9
        )


class TestLog1mExp:
    @given(st.floats(-50.0, -1e-12, allow_nan=False))
    @settings(max_examples=80)
    def test_is_inverse_of_its_definition(self, x):
        # exp(log1mexp(x)) == 1 - exp(x) on the whole domain,
        # including both branches of the Maechler split.
        assert math.exp(log1mexp(x)) == pytest.approx(
            1.0 - math.exp(x), rel=1e-9, abs=1e-15
        )

    @given(st.floats(-1e9, 0.0, allow_nan=False))
    @settings(max_examples=80)
    def test_range_is_nonpositive(self, x):
        result = log1mexp(x)
        # 1 - exp(x) in [0, 1] for x <= 0 (exp underflows to 0 for very
        # negative x), so its log is in [-inf, 0].
        assert result <= 0.0
        assert not math.isnan(result)

    def test_boundary_zero_is_neg_inf(self):
        assert log1mexp(0.0) == float("-inf")

    def test_positive_input_rejected(self):
        with pytest.raises(ValueError):
            log1mexp(1e-9)

    @given(
        st.floats(-30.0, -1e-9, allow_nan=False),
        st.floats(-30.0, -1e-9, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        # x -> 1 - exp(x) decreases, so log1mexp must too.
        assert log1mexp(lo) >= log1mexp(hi) - 1e-9


class TestSurvivalAtScale:
    @given(huge_n, st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_probability_stays_in_unit_interval(self, n, m):
        m = min(m, n)
        xs = np.array([0, 1, m // 2, m], dtype=np.int64)
        probs = survival_probabilities(n, m, xs)
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)
        assert np.all(np.isfinite(probs))

    @given(huge_n, st.integers(2, 500))
    @settings(max_examples=30, deadline=None)
    def test_monotone_decreasing_in_assignment_size(self, n, m):
        m = min(m, n - 1)
        # A larger group is at least as likely to catch a bot.
        small, large = survival_probabilities(
            n, m, np.array([1, min(n - m, 10_000)])
        )
        assert small + 1e-12 >= large

    @given(st.integers(2, 200), st.integers(1, 50))
    @settings(max_examples=60)
    def test_matches_exact_ratio_when_small(self, n, m):
        m = min(m, n - 1)
        xs = (0, 1, (n - m) // 2, n - m)
        probs = survival_probabilities(n, m, np.array(xs))
        for x, p in zip(xs, probs):
            exact = math.comb(n - x, m) / math.comb(n, m)
            assert p == pytest.approx(exact, rel=1e-9)


class TestHypergeometricAtScale:
    @given(st.integers(10, 500), st.integers(0, 100), st.integers(1, 80))
    @settings(max_examples=60)
    def test_vector_sums_to_one(self, total, marked, draws):
        marked = min(marked, total)
        draws = min(draws, total)
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        assert np.all(pmf >= 0.0)
        assert np.all(pmf <= 1.0)
        assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-9)

    @given(huge_n, st.integers(0, 2000), st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_vector_normalized_at_paper_scale(self, total, marked, draws):
        marked = min(marked, total)
        draws = min(draws, total)
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        assert np.all(np.isfinite(pmf))
        assert float(np.sum(pmf)) == pytest.approx(1.0, abs=1e-8)

    @given(huge_n, st.integers(1, 1000), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_scalar_agrees_with_vector(self, total, marked, draws):
        marked = min(marked, total)
        draws = min(draws, total)
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        hits = int(np.argmax(pmf))
        # The scalar path is Equation 3 from log_binomial (math.lgamma),
        # the vector path reads the gammaln table — at 10^6-sized
        # arguments the two differ in the last ulps, amplified by exp()
        # to ~1e-9 relative.
        scalar = math.exp(
            log_binomial(marked, hits)
            + log_binomial(total - marked, draws - hits)
            - log_binomial(total, draws)
        )
        assert scalar == pytest.approx(float(pmf[hits]), rel=1e-6)
