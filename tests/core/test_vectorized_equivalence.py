"""Bit-identity pins: vectorized kernels vs the frozen scalar seeds.

The vectorized estimator/planner core (whole-array occupancy recurrence,
Toeplitz (max,+) convolution, broadcast DP rows) must reproduce the
historical scalar loops *exactly* where the arithmetic is
order-preserving, and within float tolerance where only the summation
order changed (the Algorithm 1 row broadcast).  The scalar references
live in ``tests/core/scalar_reference.py`` and are frozen — see its module
docstring.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import (
    scalar_attacked_count_pmf,
    scalar_combine,
    scalar_mle_m_hat,
    scalar_occupancy_likelihoods,
    scalar_occupancy_pmf,
    scalar_optimal_assign,
    scalar_weighted_m_hat,
)
from repro.core.dp import optimal_assign
from repro.core.dp_fast import _Node, _combine
from repro.core.estimator import (
    _closed_form_threshold,
    _estimate_mle,
    _estimate_weighted,
    _occupancy_log_closed,
    attacked_count_log_pmf,
    attacked_count_pmf,
    occupancy_likelihoods,
    occupancy_log_likelihoods,
    occupancy_pmf,
)


class TestOccupancyBitIdentity:
    @given(st.integers(0, 200), st.integers(1, 60))
    @settings(max_examples=60)
    def test_occupancy_pmf_bit_identical(self, n_balls, n_bins):
        got = occupancy_pmf(n_balls, n_bins)
        want = scalar_occupancy_pmf(n_balls, n_bins)
        assert got.tolist() == want.tolist()

    @given(st.integers(1, 40), st.integers(0, 300))
    @settings(max_examples=60)
    def test_occupancy_likelihoods_bit_identical(self, n_bins, upper):
        n_attacked = min(n_bins, max(0, upper % (n_bins + 1)))
        got = occupancy_likelihoods(n_attacked, n_bins, upper)
        want = scalar_occupancy_likelihoods(n_attacked, n_bins, upper)
        assert got.tolist() == want.tolist()

    @given(st.integers(2, 30), st.integers(1, 400))
    @settings(max_examples=40)
    def test_mle_matches_scalar_sweep(self, n_replicas, upper_extra):
        n_attacked = 1 + (upper_extra % (n_replicas - 1))
        upper_bound = n_attacked + upper_extra
        got = _estimate_mle(n_attacked, n_replicas, upper_bound)
        want_m, want_log = scalar_mle_m_hat(
            n_attacked, n_replicas, upper_bound
        )
        assert got.m_hat == want_m
        assert got.log_likelihood == want_log


class TestAttackedCountBitIdentity:
    sizes_strategy = st.lists(st.integers(0, 40), min_size=1, max_size=25)

    @given(sizes_strategy, st.integers(0, 60))
    @settings(max_examples=60)
    def test_attacked_count_pmf_bit_identical(self, sizes, n_bots):
        n_clients = sum(sizes) + 5
        n_bots = min(n_bots, n_clients)
        got = attacked_count_pmf(sizes, n_clients, n_bots)
        want = scalar_attacked_count_pmf(sizes, n_clients, n_bots)
        assert got.tolist() == want.tolist()

    @given(sizes_strategy, st.integers(1, 60))
    @settings(max_examples=40)
    def test_log_pmf_agrees_with_linear(self, sizes, n_bots):
        n_clients = sum(sizes) + 5
        n_bots = min(n_bots, n_clients)
        linear = attacked_count_pmf(sizes, n_clients, n_bots)
        logged = attacked_count_log_pmf(sizes, n_clients, n_bots)
        # domain: log — compare in linear space.  The two routes order
        # the arithmetic differently (logaddexp vs linear multiply-add)
        # and tiny linear cells lose relative precision to cancellation,
        # so the pin is rtol on the meaningful mass + small atol.
        assert np.allclose(np.exp(logged), linear, rtol=1e-6, atol=1e-12)

    def test_log_pmf_is_normalized(self):
        sizes = [7] * 100 + [0] * 10 + [3] * 40
        logged = attacked_count_log_pmf(sizes, 850, 300)
        total = float(np.logaddexp.reduce(logged[np.isfinite(logged)]))
        assert total == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(1, 15), st.integers(1, 120))
    @settings(max_examples=30)
    def test_weighted_matches_scalar_search(self, n_groups, n_bots):
        sizes = [3 + (i % 5) for i in range(n_groups)]
        n_clients = sum(sizes)
        n_bots = min(n_bots, n_clients)
        pmf = scalar_attacked_count_pmf(sizes, n_clients, n_bots)
        # Pick an observable, non-degenerate X from the model's support.
        n_attacked = int(np.argmax(pmf))
        nonempty = sum(1 for s in sizes if s > 0)
        if n_attacked == 0 or n_attacked >= nonempty:
            return
        got = _estimate_weighted(n_attacked, np.array(sizes), n_clients)
        want = scalar_weighted_m_hat(n_attacked, sizes, n_clients)
        assert got.m_hat == want


class TestClosedFormTail:
    @pytest.mark.parametrize("n_bins", [10, 25])
    @pytest.mark.parametrize("n_attacked", [1, 4, 9])
    def test_closed_form_matches_recurrence_past_threshold(
        self, n_bins, n_attacked
    ):
        if n_attacked > n_bins:
            pytest.skip("x > P")
        threshold = _closed_form_threshold(n_attacked)
        ms = np.arange(threshold, threshold + 40, dtype=np.int64)
        exact = scalar_occupancy_likelihoods(
            n_attacked, n_bins, int(ms.max())
        )[ms]
        closed = np.exp(_occupancy_log_closed(ms, n_attacked, n_bins))
        assert np.allclose(closed, exact, rtol=1e-9, atol=1e-300)

    def test_hybrid_switches_consistently(self):
        # Values straddling the threshold must agree with the exact table
        # on both sides of the switch.
        x, p = 5, 40
        threshold = _closed_form_threshold(x)
        ms = np.arange(threshold - 10, threshold + 10, dtype=np.int64)
        table = scalar_occupancy_likelihoods(x, p, int(ms.max()))
        got = np.exp(occupancy_log_likelihoods(x, p, ms))
        assert np.allclose(got, table[ms], rtol=1e-9)

    def test_grid_search_agrees_with_sweep_at_moderate_scale(self):
        # Force the hybrid path by shrinking the sweep limit.
        import repro.core.estimator as est

        old = est._EXACT_SWEEP_LIMIT
        est._EXACT_SWEEP_LIMIT = 1
        try:
            hybrid = _estimate_mle(30, 100, 50_000)
        finally:
            est._EXACT_SWEEP_LIMIT = old
        sweep = _estimate_mle(30, 100, 50_000)
        assert hybrid.m_hat == sweep.m_hat
        assert hybrid.log_likelihood == pytest.approx(
            sweep.log_likelihood, rel=1e-9
        )


class TestMaxPlusCombine:
    @given(
        st.lists(
            st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=80
        ),
        st.lists(
            st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=80
        ),
    )
    @settings(max_examples=60)
    def test_combine_bit_identical(self, u_vals, v_vals):
        size = min(len(u_vals), len(v_vals))
        uv = np.asarray(u_vals[:size], dtype=np.float64)
        vv = np.asarray(v_vals[:size], dtype=np.float64)
        got = _combine(
            _Node(values=uv, n_replicas=1), _Node(values=vv, n_replicas=1)
        )
        want_vals, want_arg = scalar_combine(uv, vv)
        assert got.values.tolist() == want_vals.tolist()
        assert got.arg is not None
        assert got.arg.tolist() == want_arg.tolist()

    def test_combine_chunking_boundary(self):
        # Exercise the chunked path: rows-per-chunk smaller than size.
        import repro.core.dp_fast as dpf

        rng = np.random.default_rng(20140623)
        uv = rng.uniform(0, 100, size=257)
        vv = rng.uniform(0, 100, size=257)
        old = dpf._COMBINE_CHUNK
        dpf._COMBINE_CHUNK = 1000  # ~3 rows per chunk at size 257
        try:
            got = _combine(
                _Node(values=uv, n_replicas=1),
                _Node(values=vv, n_replicas=1),
            )
        finally:
            dpf._COMBINE_CHUNK = old
        want_vals, want_arg = scalar_combine(uv, vv)
        assert got.values.tolist() == want_vals.tolist()
        assert got.arg is not None
        assert got.arg.tolist() == want_arg.tolist()


class TestAlgorithmOneTables:
    @pytest.mark.parametrize(
        "n, m, p", [(12, 4, 3), (20, 6, 4), (30, 10, 2), (15, 15, 3)]
    )
    def test_tables_match_scalar_nest(self, n, m, p):
        got = optimal_assign(n, m, p)
        want_save, want_assign = scalar_optimal_assign(n, m, p)
        # The broadcast row changes only the summation order, so values
        # are tolerance-equal, not bit-equal.
        assert np.allclose(got.save_no, want_save, rtol=1e-9, atol=1e-12)
        # Argmaxes must agree wherever the scalar best is not within
        # float noise of the runner-up (ties may legitimately flip).
        diff = got.assign_no != want_assign
        if diff.any():
            for i, j, k in zip(*np.nonzero(diff)):
                assert math.isclose(
                    got.save_no[i, j, k],
                    want_save[i, j, k],
                    rel_tol=1e-9,
                )

    def test_value_large_instance(self):
        got = optimal_assign(60, 12, 4)
        want_save, _ = scalar_optimal_assign(60, 12, 4)
        assert float(
            got.save_no[60, 12, 3]
        ) == pytest.approx(float(want_save[60, 12, 3]), rel=1e-12)


class TestLargeNInvariants:
    def test_mle_at_paper_scale_runs_and_is_sane(self):
        # N = 10^6, P = 10^3: far beyond the exact-sweep budget; the
        # hybrid path must return an informative, in-range estimate.
        result = _estimate_mle(600, 1_000, 1_000_000)
        assert 600 <= result.m_hat <= 1_000_000
        assert math.isfinite(result.log_likelihood)
        # Moment estimate is a consistency anchor (tracks MLE closely).
        raw = math.log1p(-600 / 1000) / math.log1p(-1 / 1000)
        assert abs(result.m_hat - raw) / raw < 0.05

    def test_log_likelihoods_monotone_tail(self):
        # For m far past the mode the likelihood must decay monotonically
        # (unimodality the grid refinement relies on).
        logs = occupancy_log_likelihoods(
            10, 50, np.arange(2_000, 2_200, dtype=np.int64)
        )
        assert np.all(np.diff(logs) < 0)
