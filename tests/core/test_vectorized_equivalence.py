"""Bit-identity pins: today's kernels vs the frozen reference bodies.

The vectorized estimator/planner core (whole-array occupancy recurrence,
Toeplitz (max,+) convolution, broadcast DP rows) must reproduce the
historical scalar loops *exactly* where the arithmetic is
order-preserving, and within float tolerance where only the summation
order changed (the Algorithm 1 row broadcast).  The greedy planner's
windowed ``ω`` search and closed-form group sizes are pinned the same way
against the full scan and the replica-by-replica loop they replaced, and
the greedy and even plans built and scored as runs ``((size, count), …)``
against the P-element lists they replaced.  The references live in
``tests/core/scalar_reference.py`` and are frozen — see its module
docstring.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import (
    scalar_attacked_count_log_pmf,
    scalar_attacked_count_pmf,
    scalar_combine,
    scalar_even_plan,
    scalar_expected_saved_sizes,
    scalar_greedy_plan,
    scalar_greedy_sizes,
    scalar_mle_m_hat,
    scalar_occupancy_likelihoods,
    scalar_occupancy_pmf,
    scalar_optimal_assign,
    scalar_single_replica_optimum,
    scalar_survival_log_probabilities,
    scalar_survival_probabilities,
)
from repro.core import api, combinatorics, objective
from repro.core.combinatorics import (
    expected_saved_single_few,
    expected_saved_single_many,
    survival_log_probabilities,
    survival_probabilities,
)
from repro.core.dp import optimal_assign
from repro.core.dp_fast import _Node, _combine, dp_fast_sizes
from repro.core.estimator import (
    _OccupancySweep,
    _estimate_mle,
    _occupancy_sweep,
    attacked_count_log_likelihood,
    occupancy_likelihoods,
    occupancy_pmf,
)
from repro.core.even import _even_plan, _even_runs, even_sizes
from repro.core.greedy import _greedy_plan, _greedy_runs, greedy_sizes
from repro.core.objective import (
    _expected_saved_runs,
    expected_saved_sizes,
    single_replica_optimum,
)
from repro.core.plan import ShufflePlan, _distinct_sizes, _expand_runs
from repro.core.policy import Observation, PosteriorPolicy


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

    @given(st.integers(2, 120), st.integers(0, 10_000), st.integers(0, 40))
    @settings(max_examples=60)
    def test_mle_matches_scalar_sweep(self, n_replicas, pick, upper_factor):
        # upper_bound from X itself up to 40·P: caps that bind before the
        # bounded sweep's stop, and caps far past it.
        n_attacked = 1 + (pick % (n_replicas - 1))
        upper_bound = max(n_attacked, upper_factor * n_replicas)
        got = _estimate_mle(n_attacked, n_replicas, upper_bound)
        want_m, want_log = scalar_mle_m_hat(
            n_attacked, n_replicas, upper_bound
        )
        assert got.m_hat == want_m
        assert got.log_likelihood == want_log


#: (x, P, upper) -> (m_hat, log_likelihood), captured from `_estimate_mle`
#: at 5e8849b, before the sweep was bounded; the first three rows are
#: sim_mle_scale observations.  At (999, 1000) f(x, x) underflows to
#: exactly 0.0 and the peak only appears thousands of steps later.
PAPER_SCALE_GOLDEN = [
    ((669, 1000, 149_706), (1105, -3.2232058313734893)),
    ((647, 1000, 149_433), (1041, -3.214906638292776)),
    ((840, 1000, 120_970), (1832, -3.155176488989022)),
    ((100, 1000, 150_000), (105, -1.6828939972013521)),
    ((300, 1000, 150_000), (356, -2.699346276179041)),
    ((1, 1000, 150_000), (1, 0.0)),
    ((500, 1000, 1_000_000), (693, -3.0893073608674775)),
    ((600, 1000, 1_000_000), (916, -3.1875563705999266)),
    ((950, 1000, 1_000_000), (2994, -2.765171023449319)),
    ((990, 1000, 1_000_000), (4603, -2.049716097728437)),
    ((999, 1000, 150_000), (6905, -0.9960298288699696)),
]


def _assert_matches_scalar(n_attacked, n_replicas, upper_bound):
    got = _estimate_mle(n_attacked, n_replicas, upper_bound)
    want = scalar_mle_m_hat(n_attacked, n_replicas, upper_bound)
    assert (got.m_hat, got.log_likelihood) == want


class TestSharedSweepPurity:
    """An estimate is a function of (x, P, upper), not of what the
    process's shared sweep for P has already been asked."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([7, 12, 40]),
                st.integers(0, 10_000),
                st.integers(0, 30),
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_any_sequence_matches_the_scalar_sweep(self, calls):
        # Three replica counts, so most calls resume a sweep an earlier
        # one left somewhere else; caps from X itself (below where the
        # sweep stands: the single-column fallback) to 30·P (above it).
        # The second pass starts every call on the sweeps the first left
        # standing, so the warm positions are drawn too.
        _occupancy_sweep.cache_clear()  # so a failing example replays
        for _ in ("cold", "warm"):
            for n_replicas, pick, upper_factor in calls:
                n_attacked = 1 + pick % (n_replicas - 1)
                _assert_matches_scalar(
                    n_attacked,
                    n_replicas,
                    max(n_attacked, upper_factor * n_replicas),
                )

    def test_cap_below_a_peak_the_sweep_already_passed(self):
        free = _estimate_mle(30, 100, 4_000)
        sweep = _occupancy_sweep(100)
        assert sweep.balls > free.m_hat > 33
        _assert_matches_scalar(30, 100, 33)  # first[x] > upper: fallback
        _assert_matches_scalar(30, 100, free.m_hat)  # first[x] == upper
        assert _estimate_mle(30, 100, 4_000) == free

    def test_an_interrupted_walk_is_not_resumed(self, monkeypatch):
        # Interrupt between the row step and the tracking: the sweep is
        # a row ahead of its own ball count and must not be served again.
        _occupancy_sweep.cache_clear()  # the walk below must have rows to go
        _estimate_mle(5, 40, 6)
        torn = _occupancy_sweep(40)

        def step_then_interrupt(self):
            self._row = next(self._rows)
            raise KeyboardInterrupt

        monkeypatch.setattr(_OccupancySweep, "_advance", step_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            _estimate_mle(30, 40, 1_200)
        monkeypatch.undo()
        assert _occupancy_sweep(40) is not torn
        _assert_matches_scalar(30, 40, 1_200)

    @pytest.mark.parametrize(
        "order",
        [
            PAPER_SCALE_GOLDEN,
            PAPER_SCALE_GOLDEN[::-1],
            PAPER_SCALE_GOLDEN[-1:] + PAPER_SCALE_GOLDEN[:-1],
        ],
        ids=["forward", "reversed", "999-first"],
    )
    def test_paper_scale_golden_table_in_any_order(self, order):
        for cleared in (False, True):
            if cleared:
                _occupancy_sweep.cache_clear()
            for case, want in order:
                got = _estimate_mle(*case)
                assert (got.m_hat, got.log_likelihood) == want

    def test_more_replica_counts_than_the_cache_holds(self):
        held = _occupancy_sweep.cache_info().maxsize
        counts = range(20, 20 + 2 * held)
        for n_replicas in (*counts, counts[0]):  # the first was evicted
            _assert_matches_scalar(n_replicas // 2, n_replicas, 10**4)
        assert _occupancy_sweep.cache_info().currsize == held


class TestBoundedSweep:
    """The MLE's early stop is a proof: nothing past it beats the peak."""

    @given(st.integers(3, 80), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_nothing_past_the_stop_beats_the_peak(self, n_replicas, pick):
        n_attacked = 1 + (pick % (n_replicas - 1))
        upper = 40 * n_replicas
        full = occupancy_likelihoods(n_attacked, n_replicas, upper)
        sweep = _OccupancySweep(n_replicas)
        first, peak = sweep.first_maximum(n_attacked, upper)
        stop = sweep.balls
        assert stop < upper  # the bound fired long before 40·P
        assert (first, peak) == (int(np.argmax(full)), full.max())
        assert full[stop:].max() <= peak
        # Every column the sweep carried on the way is as settled, over
        # the rows walked, as the one that was asked for.
        for column in range(n_attacked + 1):
            walked = occupancy_likelihoods(column, n_replicas, stop)
            assert sweep.first[column] == np.argmax(walked)
            assert sweep.peak[column] == walked.max()
        # Asking again walks no further.
        assert sweep.first_maximum(n_attacked, upper) == (first, peak)
        assert sweep.balls == stop

    @pytest.mark.parametrize("case, want", PAPER_SCALE_GOLDEN)
    def test_paper_scale_golden_table(self, case, want):
        got = _estimate_mle(*case)
        assert (got.m_hat, got.log_likelihood) == want

    @pytest.mark.parametrize(
        "n_attacked, n_replicas, upper_bound",
        [
            (30, 100, 30),  # upper_bound == X: one candidate
            (30, 100, 33),  # cap binds on the rising side of the peak
            (60, 100, 75),
            (7, 8, 12),
        ],
    )
    def test_cap_that_binds_before_the_stop(
        self, n_attacked, n_replicas, upper_bound
    ):
        free = _estimate_mle(n_attacked, n_replicas, 40 * n_replicas)
        assert upper_bound < free.m_hat
        got = _estimate_mle(n_attacked, n_replicas, upper_bound)
        want_m, want_log = scalar_mle_m_hat(
            n_attacked, n_replicas, upper_bound
        )
        assert got.m_hat == want_m == upper_bound
        assert got.log_likelihood == want_log

    @pytest.mark.parametrize(
        "n_attacked, n_replicas", [(4, 10), (30, 100), (90, 100)]
    )
    def test_flat_prior_full_sweep_agrees(self, n_attacked, n_replicas):
        # A full sweep of [0, upper_bound] must land where the bounded
        # shared sweep does: same m_hat, same likelihood bits.
        upper_bound = 40 * n_replicas
        pure = _estimate_mle(n_attacked, n_replicas, upper_bound)
        full = occupancy_likelihoods(n_attacked, n_replicas, upper_bound)
        m_hat = n_attacked + int(np.argmax(full[n_attacked:]))
        assert pure.m_hat == m_hat
        assert pure.log_likelihood == math.log(full[m_hat])


def _assert_same_plan(n_clients: int, n_bots: int, n_replicas: int) -> None:
    """``==`` on ω, on f(ω) (exact float equality) and on every size."""
    got = single_replica_optimum(n_clients, n_bots)
    assert got == scalar_single_replica_optimum(n_clients, n_bots)
    assert type(got[0]) is int and type(got[1]) is float
    sizes = greedy_sizes(n_clients, n_bots, n_replicas)
    assert sizes == scalar_greedy_sizes(n_clients, n_bots, n_replicas)
    assert all(type(size) is int for size in sizes)


class TestGreedyPlanBitIdentity:
    """Windowed ω and closed-form sizes vs the full scan and the loop."""

    @given(st.integers(0, 400), st.integers(0, 400), st.integers(1, 60))
    @settings(max_examples=300)
    def test_matches_full_scan_and_loop(self, n_clients, pick, n_replicas):
        _assert_same_plan(n_clients, pick % (n_clients + 1), n_replicas)

    @pytest.mark.parametrize(
        "n_clients, n_bots",
        [
            (0, 0),
            (1, 0),
            (1, 1),
            # M = 1: f(x) = x(N − x)/N, a flat top.  N odd puts an exact
            # tie at (N ± 1)/2 (first-maximum rule); N even a lone peak
            # whose neighbours differ from it by 1/x² relative.
            (2, 1),
            (9, 1),
            (10, 1),
            (401, 1),
            (4_000, 1),
            (4_001, 1),
            # M = 2, odd and even N.
            (9, 2),
            (10, 2),
            (4_001, 2),
            # M = N (f ≡ 0, first maximum x = 1) and M = N − 1 (support
            # is the single point x = 1).
            (10, 10),
            (10, 9),
            (4_000, 3_999),
            (4_000, 3_998),
            # (N − M)/(M + 1) an exact integer: f(r) = f(r + 1) in real
            # arithmetic.  r = 9, 3, 1, 100.
            (109, 10),
            (19, 4),
            (5, 2),
            (1_110, 10),
        ],
    )
    @pytest.mark.parametrize("n_replicas", [1, 2, 7, 60, 5_000])
    def test_edges(self, n_clients, n_bots, n_replicas):
        # n_replicas spans P = 1, P < N/ω, P > N/ω and P > N.
        _assert_same_plan(n_clients, n_bots, n_replicas)

    @pytest.mark.parametrize(
        "n_bots", [1, 7, 1_041, 6_905, 100_000, 149_747, 149_999, 150_000]
    )
    @pytest.mark.parametrize("n_replicas", [1, 1_000])
    def test_paper_scale(self, n_bots, n_replicas):
        _assert_same_plan(150_000, n_bots, n_replicas)

    @given(st.integers(1, 400), st.integers(0, 400))
    @settings(max_examples=200)
    def test_omega_is_the_exact_arithmetic_argmax(self, n_clients, pick):
        # f(x+1)/f(x) crosses 1 at r = (N − M)/(M + 1), so the first
        # maximum is ⌈r⌉ (at least 1); an integer r is an exact tie with
        # r + 1 that float rounding may break either way.  N ≤ 400 keeps
        # neighbouring values ≥ 1e-5 apart, far above the kernel's error.
        n_bots = 1 + pick % n_clients
        omega, _ = single_replica_optimum(n_clients, n_bots)
        floor_r, rest = divmod(n_clients - n_bots, n_bots + 1)
        if rest == 0:
            assert omega in (max(1, floor_r), floor_r + 1)
        else:
            assert omega == floor_r + 1

    @pytest.mark.parametrize("n_bots", [11, -1])
    def test_bot_count_outside_the_population_raises(self, n_bots):
        # -1 makes M + 1 = 0: a ZeroDivisionError in a careless closed
        # form, where the scan's kernel raised ValueError.
        with pytest.raises(ValueError):
            single_replica_optimum(10, n_bots)
        with pytest.raises(ValueError):
            scalar_single_replica_optimum(10, n_bots)


class TestCertifiedWindow:
    """The margin stop is a proof: nothing outside the window reaches
    the peak, not even as a tie."""

    @given(st.integers(2, 3_000), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_nothing_outside_the_window_reaches_the_peak(
        self, n_clients, pick
    ):
        n_bots = 1 + pick % (n_clients - 1)
        support = n_clients - n_bots
        windows = []

        def spy(n, m, xs):
            windows.append((int(xs[0]), int(xs[-1])))
            return expected_saved_single_few(n, m, xs)

        with mock.patch.object(objective, "expected_saved_single_few", spy):
            omega, peak = single_replica_optimum(n_clients, n_bots)
        # The first window is the three points around ⌈r⌉, r = (N −
        # M)/(M + 1), clipped to the support; every later one holds it.
        ceil_r = -(-support // (n_bots + 1))
        assert windows[0] == (max(ceil_r - 1, 1), min(ceil_r + 1, support))
        low, high = windows[-1]
        assert 1 <= low <= omega <= high <= support
        xs = np.arange(1, n_clients + 1, dtype=np.int64)
        full = expected_saved_single_many(n_clients, n_bots, xs)
        assert full[omega - 1] == peak
        # The stop: each end on the support's boundary, or below the
        # peak by the relative margin μ = 64 ulp of lgamma(N + 1).
        keep = 1.0 - 64.0 * math.ulp(max(math.lgamma(n_clients + 1), 1.0))
        assert low == 1 or full[low - 1] < keep * peak
        assert high == support or full[high - 1] < keep * peak
        # What it certifies: every value outside the window is strictly
        # below the peak, so the first maximum is the window's.
        outside = np.concatenate([full[: low - 1], full[high:]])
        assert (outside < peak).all()
        # What licensed the stop: the curve rises to ω and falls after
        # it (unimodal up to float noise), and is exactly zero past the
        # support N − M.
        noise = 1e-9 * peak
        assert (np.diff(full[:omega]) >= -noise).all()
        assert (np.diff(full[omega - 1 :]) <= noise).all()
        assert not full[support:].any()

    @pytest.mark.parametrize(
        "n_bots",
        sorted(
            {0, 150_000}
            | set(np.geomspace(1, 150_000, 40).astype(int).tolist())
        ),
    )
    def test_paper_scale_grid_is_the_full_scan(self, n_bots):
        assert single_replica_optimum(
            150_000, n_bots
        ) == scalar_single_replica_optimum(150_000, n_bots)

    def test_integer_r_ties_break_as_the_full_scan_does(self):
        # N + 1 = 150,001 is prime, so at N = 150,000 no 0 < M < N puts
        # r on an integer.  N = 149,999 has 58 such M, and float
        # rounding hands the tie f(r) = f(r + 1) to r on some of them
        # and to r + 1 on others: both ends of the window must hold.
        n_clients = 149_999
        sides = set()
        for n_bots in range(1, n_clients):
            if (n_clients + 1) % (n_bots + 1):
                continue
            got = single_replica_optimum(n_clients, n_bots)
            assert got == scalar_single_replica_optimum(n_clients, n_bots)
            sides.add(got[0] - (n_clients - n_bots) // (n_bots + 1))
        assert sides == {0, 1}


@st.composite
def _population(draw, max_clients=200_000):
    """``(N, M)`` with ``M`` in ``[0, N]``, its two ends drawn often."""
    n_clients = draw(
        st.one_of(st.integers(0, 60), st.integers(0, max_clients))
    )
    n_bots = draw(
        st.one_of(
            st.just(0), st.just(n_clients), st.integers(0, n_clients)
        )
    )
    return n_clients, n_bots


def _assert_same_plan_object(got: ShufflePlan, want: ShufflePlan) -> None:
    """Sizes, their Python types, ``E(S)`` under ``==`` and the label."""
    assert got.group_sizes == want.group_sizes
    assert all(type(size) is int for size in got.group_sizes)
    assert type(got.n_clients) is int and type(got.n_bots) is int
    assert (got.n_clients, got.n_bots) == (want.n_clients, want.n_bots)
    assert got.expected_saved == want.expected_saved
    assert got.algorithm == want.algorithm


class TestPlansAsRuns:
    """Greedy and even plans built and scored as runs, not size lists."""

    @given(_population(), st.integers(1, 2_000))
    @settings(max_examples=150, deadline=None)
    @example((5, 2), 20)  # P > N: a run of empty replicas
    @example((150_000, 1_041), 1_000)  # sim_mle_scale
    def test_greedy_plan_matches_the_size_lists(self, population, n_replicas):
        n_clients, n_bots = population
        _assert_same_plan_object(
            _greedy_plan(n_clients, n_bots, n_replicas),
            scalar_greedy_plan(n_clients, n_bots, n_replicas),
        )

    @given(_population(), st.integers(1, 2_000))
    @settings(max_examples=150, deadline=None)
    @example((5, 2), 20)
    @example((140_000, 100_000), 1_000)
    def test_even_plan_matches_the_size_lists(self, population, n_replicas):
        n_clients, n_bots = population
        _assert_same_plan_object(
            _even_plan(n_clients, n_bots, n_replicas),
            scalar_even_plan(n_clients, n_bots, n_replicas),
        )

    @pytest.mark.parametrize(
        "n_clients, n_bots, n_replicas, greedy, even",
        [
            # M = 0: ω = N, so no ω-group (full = 0); N/P exact (extra = 0).
            (1_000, 0, 10, ((1_000, 0), (101, 0), (100, 10)),
             ((101, 0), (100, 10))),
            # M = N − 1: ω = 1 on every replica but the last (full = P − 1).
            (1_000, 999, 10, ((1, 9), (992, 0), (991, 1)),
             ((101, 0), (100, 10))),
            # P = 1: the empty runs hold N + 1, outside the kernel's range.
            (25, 4, 1, ((5, 0), (26, 0), (25, 1)), ((26, 0), (25, 1))),
            # P > N: one client per replica, then a run of empty ones.
            (5, 2, 20, ((1, 5), (1, 0), (0, 15)), ((1, 5), (0, 15))),
            # M = N: f ≡ 0, ω = 1.
            (50, 50, 7, ((1, 6), (45, 0), (44, 1)), ((8, 1), (7, 6))),
            # The even split scores higher and is the plan returned.
            (6, 2, 2, ((2, 1), (5, 0), (4, 1)), ((4, 0), (3, 2))),
        ],
    )
    def test_run_shapes(self, n_clients, n_bots, n_replicas, greedy, even):
        assert _greedy_runs(n_clients, n_bots, n_replicas) == greedy
        assert _even_runs(n_clients, n_replicas) == even
        for build, reference in (
            (_greedy_plan, scalar_greedy_plan),
            (_even_plan, scalar_even_plan),
        ):
            _assert_same_plan_object(
                build(n_clients, n_bots, n_replicas),
                reference(n_clients, n_bots, n_replicas),
            )

    def test_numpy_integer_queries(self):
        # The planners coerce with operator.index: numpy ints in, Python
        # ints out, exactly as from_sizes coerced the old size lists.
        query = (np.int64(150_000), np.int64(1_041), np.int64(1_000))
        for build, reference in (
            (_greedy_plan, scalar_greedy_plan),
            (_even_plan, scalar_even_plan),
        ):
            _assert_same_plan_object(build(*query), reference(*query))


class TestSurvivalKernelBitIdentity:
    """The kernel's single validation and unmasked path change no bit."""

    @given(
        _population(),
        st.integers(0, 80),
        st.integers(0, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_straddling_the_support_edge(
        self, population, below, above
    ):
        # Windows [N − M − below, N − M + above]: above = 0 keeps every
        # size in the support (the path without the -inf mask).
        n_clients, n_bots = population
        edge = n_clients - n_bots
        xs = np.arange(
            max(0, edge - below),
            min(n_clients, edge + above) + 1,
            dtype=np.int64,
        )
        got = survival_probabilities(n_clients, n_bots, xs)
        want = scalar_survival_probabilities(n_clients, n_bots, xs)
        assert got.tobytes() == want.tobytes()
        got_log = survival_log_probabilities(n_clients, n_bots, xs)
        want_log = scalar_survival_log_probabilities(n_clients, n_bots, xs)
        assert got_log.tobytes() == want_log.tobytes()

    @given(
        _population(),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=30),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_scalar_calls(self, population, raw, raw_bots):
        # A column of bot counts: one row each, the scalar call's bits,
        # whether or not the row needs the -inf mask.
        n_clients, _ = population
        xs = np.array([x % (n_clients + 1) for x in raw], dtype=np.int64)
        bots = [m % (n_clients + 1) for m in raw_bots]
        rows = survival_log_probabilities(n_clients, np.array(bots), xs)
        assert rows.shape == (len(bots), xs.size)
        for row, m in zip(rows, bots):
            want = scalar_survival_log_probabilities(n_clients, m, xs)
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "xs, bots", [([-1, 3], 2), ([3, 11], 2), ([3], 11), ([3], -1)]
    )
    def test_out_of_range_raises(self, xs, bots):
        for kernel in (
            survival_probabilities,
            survival_log_probabilities,
            scalar_survival_probabilities,
        ):
            with pytest.raises(ValueError):
                kernel(10, bots, np.array(xs))


class TestEquationOneOverRuns:
    """Eq. 1 once per distinct size equals one term per replica, bit for
    bit: the terms are repeated back out before the pairwise sum."""

    @given(
        _population(max_clients=20_000),
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 300)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_runs_match_the_elementwise_sum(self, population, raw):
        n_clients, n_bots = population
        # Occupied runs hold sizes in [0, N]; an empty run may hold
        # N + 1, which the kernel would reject (P = 1 even plans do).
        runs = tuple(
            (size % (n_clients + 1) if count else size % (n_clients + 2),
             count)
            for size, count in raw
        )
        sizes = list(_expand_runs(runs))
        want = scalar_expected_saved_sizes(sizes, n_clients, n_bots)
        assert _expected_saved_runs(n_clients, n_bots, runs) == [want]
        assert expected_saved_sizes(sizes, n_clients, n_bots) == want
        # Two plans scored in one kernel call, as _greedy_plan does.
        other = runs[::-1]
        both = _expected_saved_runs(n_clients, n_bots, runs, other)
        assert both == [
            want,
            scalar_expected_saved_sizes(
                list(_expand_runs(other)), n_clients, n_bots
            ),
        ]

    @given(
        _population(max_clients=2_000),
        st.lists(st.integers(0, 10**6), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_size_list_matches_the_elementwise_sum(self, population, raw):
        # Consecutive-run detection on sizes in no particular order.
        n_clients, n_bots = population
        sizes = [size % (n_clients + 1) for size in raw]
        assert expected_saved_sizes(
            sizes, n_clients, n_bots
        ) == scalar_expected_saved_sizes(sizes, n_clients, n_bots)


def _log_likelihoods(sizes, n_clients: int, n_bots) -> np.ndarray:
    """The run form at every ``X``: one column per attacked count."""
    return np.stack(
        [
            attacked_count_log_likelihood(sizes, n_clients, n_bots, x)
            for x in range(len(sizes) + 1)
        ],
        axis=-1,
    )


def _assert_matches_the_chain(got: np.ndarray, want: np.ndarray) -> None:
    """Within 1e-9 relative of the frozen chain, with ``-inf`` in the same
    places.  Where ``P[X = x]`` rounds to 1 its log is ``±1e-16`` against
    the chain's renormalized 0.0, hence the 1e-12 absolute floor."""
    assert (np.isneginf(got) == np.isneginf(want)).all()
    finite = np.isfinite(want)
    np.testing.assert_allclose(
        got[finite], want[finite], rtol=1e-9, atol=1e-12
    )


@st.composite
def _plan_sizes(draw):
    """``(sizes, N)``: a greedy, even or ``dp_fast`` plan, or a
    ``from_sizes`` plan whose sizes are all distinct."""
    kind = draw(st.sampled_from(["greedy", "even", "dp_fast", "distinct"]))
    if kind == "distinct":
        sizes = draw(
            st.lists(st.integers(0, 60), min_size=1, max_size=20, unique=True)
        )
        plan = ShufflePlan.from_sizes(sizes, 0)
        return list(plan.group_sizes), plan.n_clients
    n_clients = draw(st.integers(0, 400))
    n_bots = draw(st.integers(0, n_clients))
    n_replicas = draw(st.integers(1, 30))
    if kind == "greedy":
        sizes = greedy_sizes(n_clients, n_bots, n_replicas)
    elif kind == "even":
        sizes = even_sizes(n_clients, n_replicas)
    else:
        sizes = dp_fast_sizes(n_clients, n_bots, min(n_replicas, 8))
    return list(sizes), n_clients


class TestFewPointRoute:
    """The few-point route of Equation 1's terms carries the array
    kernel's bits, and the posterior's distinct sizes read off a plan's
    runs are ``np.unique``'s."""

    @given(
        _population(),
        st.lists(st.integers(0, 10**6), max_size=8),
        st.booleans(),
    )
    @example((0, 0), [], False)
    @example((7, 0), [3], True)
    @example((7, 7), [0, 1, 7], False)
    @settings(max_examples=300, deadline=None)
    def test_terms_are_the_array_kernels_bits(self, population, raw, numpy):
        # The support edge x = N − M, the first size past it, and x = 0
        # ride along with the drawn sizes; M = 0 and M = N are drawn often.
        n_clients, n_bots = population
        edge = n_clients - n_bots
        xs = [x % (n_clients + 1) for x in raw]
        xs += [edge, min(edge + 1, n_clients), 0]
        want = expected_saved_single_many(n_clients, n_bots, np.array(xs))
        if numpy:
            n_clients, n_bots = np.int64(n_clients), np.int64(n_bots)
            xs = [np.int64(x) for x in xs]
        got = expected_saved_single_few(n_clients, n_bots, xs)
        assert np.array(got, dtype=np.float64).tobytes() == want.tobytes()
        if not numpy:
            assert all(type(term) is float for term in got)

    @pytest.mark.parametrize("n_bots", [1, 40, 500_000, 1_048_600])
    def test_past_the_table_cap(self, n_bots):
        # log t! past the cap is gammaln evaluated on each read.
        n_clients = combinatorics._LOG_FACTORIAL_CAP + 700
        assert isinstance(
            combinatorics._log_factorials(n_clients),
            combinatorics._DirectLogFactorial,
        )
        edge = n_clients - n_bots
        xs = [0, 1, 2, edge // 3, edge - 1, edge, edge + 1, n_clients]
        want = expected_saved_single_many(n_clients, n_bots, np.array(xs))
        got = expected_saved_single_few(n_clients, n_bots, xs)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "xs, bots", [([-1, 3], 2), ([3, 11], 2), ([3], 11), ([3], -1)]
    )
    def test_out_of_range_raises(self, xs, bots):
        with pytest.raises(ValueError):
            expected_saved_single_few(10, bots, xs)

    @given(
        st.sampled_from(["greedy", "even", "dp_fast", "from_sizes"]),
        st.integers(0, 400),
        st.integers(0, 10**6),
        st.integers(1, 30),
        st.lists(st.integers(0, 60), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_distinct_sizes_are_np_uniques(
        self, kind, n_clients, pick, n_replicas, raw
    ):
        # Greedy and even plans keep their runs (a size may sit in two
        # of them, and a run may be empty); dp_fast and from_sizes plans
        # do not, and take np.unique itself.
        if kind == "from_sizes":
            plan = ShufflePlan.from_sizes(raw, pick % (sum(raw) + 1))
        else:
            if kind == "dp_fast":
                n_replicas = min(n_replicas, 8)
            plan = api.plan(
                n_clients, pick % (n_clients + 1), n_replicas, kind
            )
        values, counts = np.unique(plan.sizes_array, return_counts=True)
        sizes, clients = _distinct_sizes(plan)
        assert sizes.dtype == clients.dtype == np.int64
        assert sizes.tobytes() == values.tobytes()
        assert clients.tobytes() == (values * counts).tobytes()
        # So the posterior-averaged Equation 1 is the np.unique path's.
        twin = ShufflePlan.from_sizes(plan.group_sizes, plan.n_bots)
        policy = PosteriorPolicy()
        policy.believe(
            Observation(
                n_attacked=min(1, plan.n_replicas),
                n_replicas=max(plan.n_replicas, 1),
                n_clients=plan.n_clients,
            )
        )
        assert policy.expected_saved(plan) == policy.expected_saved(twin)


class TestAttackedCountBitIdentity:
    """The likelihood per run of equal sizes against the frozen
    replica-by-replica ``logaddexp`` chain it replaced."""

    sizes_strategy = st.lists(st.integers(0, 40), min_size=1, max_size=25)

    @given(_plan_sizes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_runs_match_the_chain(self, plan, data):
        sizes, n_clients = plan
        counts = np.unique(
            data.draw(
                st.lists(st.integers(0, n_clients), min_size=1, max_size=6)
            )
        )
        got = _log_likelihoods(sizes, n_clients, counts)
        want = np.array(
            [
                scalar_attacked_count_log_pmf(sizes, n_clients, m)
                for m in counts.tolist()
            ]
        )
        _assert_matches_the_chain(got, want)

    @given(sizes_strategy, st.integers(1, 60))
    @settings(max_examples=40)
    def test_log_pmf_agrees_with_linear(self, sizes, n_bots):
        n_clients = sum(sizes) + 5
        n_bots = min(n_bots, n_clients)
        linear = scalar_attacked_count_pmf(sizes, n_clients, n_bots)
        logged = _log_likelihoods(sizes, n_clients, n_bots)
        # Compare in linear space.  The two routes order
        # the arithmetic differently (binomials per run vs a linear
        # multiply-add per replica) and tiny linear cells lose relative
        # precision to cancellation, so the pin is rtol on the
        # meaningful mass + small atol.
        assert np.allclose(np.exp(logged), linear, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize(
        "n_clients, n_bots, width", [(220, 20, 10), (40, 20, 40), (120, 30, 10)]
    )
    def test_log_pmf_rows_are_the_scalar_calls(
        self, n_clients, n_bots, width
    ):
        # Every bot count at once, as the live posterior asks for them
        # (a zero-size replica included): each row is the scalar call's
        # bits, and within 1e-9 of the frozen one-count chain.
        sizes = greedy_sizes(n_clients, n_bots, width) + [0]
        counts = np.arange(n_clients + 1)
        rows = _log_likelihoods(sizes, n_clients, counts)
        assert rows.shape == (counts.size, len(sizes) + 1)
        for m in counts.tolist():
            got = _log_likelihoods(sizes, n_clients, m)
            assert rows[m].tobytes() == got.tobytes()
            want = scalar_attacked_count_log_pmf(sizes, n_clients, m)
            _assert_matches_the_chain(got, want)

    def test_log_pmf_is_normalized(self):
        sizes = [7] * 100 + [0] * 10 + [3] * 40
        logged = _log_likelihoods(sizes, 850, 300)
        total = float(np.logaddexp.reduce(logged[np.isfinite(logged)]))
        assert total == pytest.approx(0.0, abs=1e-9)


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
        # N = 10^6, P = 10^3: a sweep to the cap would be 10^9
        # element-ops; the bounded sweep must return an informative,
        # in-range estimate.
        result = _estimate_mle(600, 1_000, 1_000_000)
        assert 600 <= result.m_hat <= 1_000_000
        assert math.isfinite(result.log_likelihood)
        # Moment estimate is a consistency anchor (tracks MLE closely).
        raw = math.log1p(-600 / 1000) / math.log1p(-1 / 1000)
        assert abs(result.m_hat - raw) / raw < 0.05
