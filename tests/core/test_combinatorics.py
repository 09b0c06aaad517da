"""Unit and property tests for repro.core.combinatorics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from repro.core import combinatorics, dp
from repro.core.combinatorics import (
    expected_saved_single_few,
    expected_saved_single_many,
    hypergeometric_pmf_vector,
    log_binomial,
    survival_log_probabilities,
    survival_probabilities,
)


class TestLogBinomial:
    def test_matches_math_comb_small(self):
        for n in range(0, 25):
            for k in range(0, n + 1):
                expected = math.comb(n, k)
                assert log_binomial(n, k) == pytest.approx(
                    math.log(expected), abs=1e-9
                )

    def test_zero_coefficient_is_minus_inf(self):
        assert log_binomial(5, 6) == float("-inf")
        assert log_binomial(5, -1) == float("-inf")
        assert log_binomial(-1, 0) == float("-inf")

    def test_edges(self):
        assert log_binomial(10, 0) == 0.0
        assert log_binomial(10, 10) == 0.0

    def test_large_arguments_do_not_overflow(self):
        value = log_binomial(150_000, 100_000)
        assert math.isfinite(value)
        assert value > 0

    @given(st.integers(1, 200), st.integers(0, 200))
    def test_symmetry(self, n, k):
        if k <= n:
            assert log_binomial(n, k) == pytest.approx(
                log_binomial(n, n - k), rel=1e-12, abs=1e-9
            )

    @given(st.integers(2, 100), st.integers(1, 100))
    def test_pascal_rule(self, n, k):
        if k <= n - 1:
            lhs = math.exp(log_binomial(n, k))
            rhs = math.exp(log_binomial(n - 1, k)) + math.exp(
                log_binomial(n - 1, k - 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)


def _exact_survival(n: int, m: int, x: int) -> float:
    """``p = C(n − x, m) / C(n, m)`` as a ratio of exact integers, rounded
    once (``math.comb`` is 0 past the support)."""
    return math.comb(n - x, m) / math.comb(n, m)


def _exact_hypergeometric(
    total: int, marked: int, draws: int, hits: int
) -> float:
    """``Pr(b = hits)`` of Equation 3 from exact ``math.comb`` integers."""
    if draws - hits < 0:
        return 0.0
    return (
        math.comb(marked, hits)
        * math.comb(total - marked, draws - hits)
        / math.comb(total, draws)
    )


class TestSurvivalProbability:
    def test_no_bots_is_certain(self):
        assert survival_probabilities(100, 0, np.array([30]))[0] == 1.0

    def test_all_clients_on_replica_with_bots(self):
        assert survival_probabilities(50, 3, np.array([50]))[0] == 0.0

    def test_empty_replica_survives(self):
        # Exactly 1 in exact arithmetic; the kernel's numerator (the
        # gammaln table) and denominator (math.lgamma) differ by a few
        # ulp of lgamma(51), so only the clamp at 1 is exact.
        p = survival_probabilities(50, 3, np.array([0]))[0]
        assert p == pytest.approx(1.0, rel=1e-12)
        assert p <= 1.0

    def test_manual_value(self):
        # 1 bot among 4 clients, replica holds 1: survives w.p. 3/4.
        assert survival_probabilities(4, 1, np.array([1]))[0] == (
            pytest.approx(0.75)
        )
        # 2 bots among 6, replica holds 2: C(4, 2) / C(6, 2) = 6/15.
        assert survival_probabilities(6, 2, np.array([2]))[0] == (
            pytest.approx(6 / 15)
        )

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            survival_probabilities(10, 2, np.array([11]))
        with pytest.raises(ValueError):
            survival_probabilities(10, 11, np.array([2]))
        with pytest.raises(ValueError):
            survival_probabilities(10, 2, np.array([-1]))
        with pytest.raises(ValueError):
            survival_probabilities(10, -1, np.array([2]))

    @given(st.integers(2, 80), st.integers(1, 80))
    def test_monotone_decreasing_in_size(self, n, m):
        m = min(m, n)
        probs = survival_probabilities(n, m, np.arange(n + 1))
        assert (np.diff(probs) <= 1e-12).all()

    @given(st.integers(2, 60), st.integers(0, 60), st.integers(0, 60))
    def test_vector_matches_scalar(self, n, m, x):
        """The scalar side is the exact ``math.comb`` ratio."""
        m = min(m, n)
        x = min(x, n)
        vec = survival_probabilities(n, m, np.array([x]))
        assert vec[0] == pytest.approx(_exact_survival(n, m, x))

    def test_vector_empty(self):
        assert survival_probabilities(10, 2, np.array([], dtype=int)).size == 0

    def test_vector_validates(self):
        with pytest.raises(ValueError):
            survival_probabilities(10, 2, np.array([11]))
        with pytest.raises(ValueError):
            survival_probabilities(10, 11, np.array([1]))

    def test_agrees_with_monte_carlo(self, rng):
        n, m, x = 40, 6, 9
        hits = 0
        trials = 20_000
        for _ in range(trials):
            bots = rng.choice(n, size=m, replace=False)
            if (bots >= x).all():  # replica owns slots [0, x)
                hits += 1
        expected = survival_probabilities(n, m, np.array([x]))[0]
        assert hits / trials == pytest.approx(expected, abs=0.02)


class TestExpectedSavedSingle:
    def test_zero_size_saves_nothing(self):
        assert expected_saved_single_many(10, 3, np.array([0]))[0] == 0.0
        assert expected_saved_single_few(10, 3, [0]) == [0.0]

    def test_values_match_vector(self):
        """``f(x) = x · p(x)`` from exact ``math.comb`` integers against
        both routes of the kernel."""
        xs = np.arange(0, 21)
        vec = expected_saved_single_many(20, 4, xs)
        for x in xs:
            assert vec[x] == pytest.approx(
                int(x) * _exact_survival(20, 4, int(x))
            )
        few = expected_saved_single_few(20, 4, xs.tolist())
        assert np.array(few).tobytes() == vec.tobytes()

    def test_peak_is_interior_for_many_bots(self):
        xs = np.arange(0, 101)
        vec = expected_saved_single_many(100, 20, xs)
        peak = int(np.argmax(vec))
        assert 1 <= peak < 100


class TestHypergeometricPmf:
    def test_sums_to_one(self):
        total, marked, draws = 30, 7, 11
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        assert pmf.sum() == pytest.approx(1.0)

    def test_matches_scalar(self):
        """The scalar side is the exact ``math.comb`` ratio."""
        total, marked, draws = 25, 6, 9
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        for hits in range(pmf.size):
            assert pmf[hits] == pytest.approx(
                _exact_hypergeometric(total, marked, draws, hits)
            )

    def test_matches_scipy(self):
        from scipy.stats import hypergeom

        total, marked, draws = 50, 12, 20
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        reference = hypergeom.pmf(
            np.arange(pmf.size), total, marked, draws
        )
        np.testing.assert_allclose(pmf, reference, rtol=1e-9, atol=1e-12)

    def test_impossible_hit_counts_are_zero(self):
        # 3 marked of 10; drawing 9 must hit at least 2 marked.
        pmf = hypergeometric_pmf_vector(10, 3, 9)
        assert pmf[0] == 0.0
        assert pmf[1] == 0.0

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            hypergeometric_pmf_vector(10, 11, 2)
        with pytest.raises(ValueError):
            hypergeometric_pmf_vector(10, 2, 11)

    @given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 40))
    def test_vector_always_normalized(self, total, marked, draws):
        marked = min(marked, total)
        draws = min(draws, total)
        pmf = hypergeometric_pmf_vector(total, marked, draws)
        assert pmf.min() >= 0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestHypergeometricPmfVectorValidation:
    """The vector pmf rejects impossible inputs with the messages the
    scalar ``Pr(b)`` raised: ``marked`` is checked before ``draws``."""

    @pytest.mark.parametrize(
        "total, marked, draws",
        [
            (10, 3, 12),  # more draws than items: was [0, 0, 0, 0]
            (10, 12, 4),  # more marked than items: was zeros + a warning
            (10, -1, 4),  # negative marked: was []
            (10, 3, -1),
        ],
    )
    def test_impossible_inputs_raise_like_the_scalar(
        self, total, marked, draws
    ):
        field = "marked" if not 0 <= marked <= total else "draws"
        with pytest.raises(ValueError) as vector:
            hypergeometric_pmf_vector(total, marked, draws)
        assert str(vector.value) == f"{field} must be within [0, total]"


class _NonNegativeIndexTable(np.ndarray):
    """A log-factorial table that refuses negative indices."""

    def __getitem__(self, index):
        if np.min(index) < 0:
            raise IndexError(f"negative index into log t!: {index!r}")
        return np.asarray(self)[index]

    def item(self, index):
        if index < 0:
            raise IndexError(f"negative index into log t!: {index!r}")
        return np.asarray(self).item(index)


class TestLogFactorialTable:
    """One table of ``gammaln(t + 1.0)``, bit for bit."""

    @staticmethod
    def _reference(top: int) -> np.ndarray:
        return gammaln(np.arange(top + 1, dtype=np.float64) + 1.0)

    def test_table_is_gammaln_bit_for_bit(self):
        top = 150_000
        table = combinatorics._log_factorials(top)
        assert table[: top + 1].tobytes() == self._reference(top).tobytes()

    def test_growth_extends_a_new_array_and_keeps_the_old(self, monkeypatch):
        monkeypatch.setattr(
            combinatorics, "_LOG_FACTORIAL", self._reference(999)
        )
        old = combinatorics._log_factorials(999)
        assert old.size == 1_000
        snapshot = old.tobytes()
        # A small step still grows by an eighth; a large one to ``top``.
        grown = combinatorics._log_factorials(1_005)
        assert grown is not old and grown.size == 1_125
        assert combinatorics._LOG_FACTORIAL is grown
        assert old.tobytes() == snapshot
        assert grown.tobytes() == self._reference(1_124).tobytes()
        larger = combinatorics._log_factorials(40_000)
        assert larger.size == 40_001
        assert larger.tobytes() == self._reference(40_000).tobytes()
        assert combinatorics._log_factorials(30_000) is larger

    def test_past_the_cap_gammaln_is_evaluated_directly(self, monkeypatch):
        n, m = 3_000, 40
        xs = np.arange(0, n + 1, 7, dtype=np.int64)
        tabled = survival_log_probabilities(n, m, xs)
        pmf = hypergeometric_pmf_vector(n, m, 200)
        monkeypatch.setattr(
            combinatorics, "_LOG_FACTORIAL", self._reference(10)
        )
        monkeypatch.setattr(combinatorics, "_LOG_FACTORIAL_CAP", 100)
        direct = combinatorics._log_factorials(n)
        assert not isinstance(direct, np.ndarray)
        assert combinatorics._LOG_FACTORIAL.size == 11  # not grown
        t = np.arange(n + 1)
        assert direct[t].tobytes() == self._reference(n).tobytes()
        assert direct[m] == self._reference(n)[m]
        got = survival_log_probabilities(n, m, xs)
        assert got.tobytes() == tabled.tobytes()
        got_pmf = hypergeometric_pmf_vector(n, m, 200)
        assert got_pmf.tobytes() == pmf.tobytes()

    def test_no_kernel_indexes_below_zero(self, monkeypatch):
        # Sizes past the support (rest < m), draws past the unmarked
        # items (a − b > N − M) and the dp's clipped cells: a negative
        # index would silently read the far end of the table.
        table = combinatorics._log_factorials(200)

        def guarded(top):
            assert top <= 200
            return table.view(_NonNegativeIndexTable)

        monkeypatch.setattr(combinatorics, "_log_factorials", guarded)
        monkeypatch.setattr(dp, "_log_factorials", guarded)
        xs = np.arange(0, 51, dtype=np.int64)
        survival_log_probabilities(50, 30, xs)
        survival_log_probabilities(50, np.array([1, 30, 50]), xs)
        expected_saved_single_many(50, 49, xs)
        expected_saved_single_few(50, 49, xs.tolist())
        for marked in range(0, 11):
            for draws in range(0, 11):
                hypergeometric_pmf_vector(10, marked, draws)
        dp.optimal_assign(12, 4, 3)
        dp._dp_plan(12, 4, 3)
