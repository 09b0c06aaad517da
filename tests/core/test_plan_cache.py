"""Tests for the plan cache (cells computed on first use or ahead)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp_fast import dp_fast_value
from repro.core.plan_cache import PlanCache, _nearest, _repair
from repro.core.shuffler import ShuffleEngine
from repro.service import ServiceConfig

LIVE = ServiceConfig()


def make_cache() -> PlanCache:
    cache = PlanCache(
        n_replicas=20,
        client_grid=(100, 200, 400, 800),
        bot_grid=(10, 40, 160),
    )
    cache.precompute()
    return cache


def live_cache() -> PlanCache:
    """An empty cache on the live service's default grids."""
    return PlanCache(
        n_replicas=LIVE.n_replicas,
        client_grid=LIVE.plan_client_grid,
        bot_grid=LIVE.plan_bot_grid,
    )


@pytest.fixture(scope="module")
def eager() -> PlanCache:
    cache = live_cache()
    cache.precompute()
    return cache


_QUERY = st.integers(0, 1300).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, n),
        st.sampled_from((LIVE.n_replicas, 1, 3, LIVE.n_replicas + 1, 40)),
    )
)


class TestConstruction:
    def test_precompute_counts_cells(self):
        cache = PlanCache(
            n_replicas=5, client_grid=(50, 100), bot_grid=(5, 20)
        )
        assert cache.precompute() == 4
        assert cache.cells == 4
        assert cache.precompute() == 0  # idempotent

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(n_replicas=0, client_grid=(10,), bot_grid=(1,))
        with pytest.raises(ValueError):
            PlanCache(n_replicas=5, client_grid=(), bot_grid=(1,))
        with pytest.raises(ValueError):
            PlanCache(n_replicas=5, client_grid=(20, 10), bot_grid=(1,))


class TestLazyFill:
    """A cell computed on first use serves what a precomputed one does."""

    @settings(max_examples=60, deadline=None)
    @given(queries=st.lists(_QUERY, min_size=1, max_size=12))
    def test_lazy_lookups_equal_eager_lookups(self, eager, queries):
        lazy = live_cache()
        hits, fallbacks = eager.hits, eager.fallbacks
        for n_clients, n_bots, width in queries:
            got = lazy(n_clients, n_bots, width)
            want = eager(n_clients, n_bots, width)
            assert got.group_sizes == want.group_sizes
            assert got.expected_saved == want.expected_saved
            assert got.algorithm == want.algorithm
        assert lazy.hits == eager.hits - hits
        assert lazy.fallbacks == eager.fallbacks - fallbacks
        # Only cells a query snapped to were computed.
        assert lazy.cells <= lazy.hits

    def test_bound_zero_computes_nothing(self):
        cache = live_cache()
        assert cache.precompute(0) == 0
        assert cache.cells == 0

    def test_unbounded_computes_every_cell_once(self):
        cache = live_cache()
        assert cache.precompute() == 39
        assert cache.cells == 39
        assert cache.precompute() == 0
        assert cache.precompute(10_000) == 0

    @pytest.mark.parametrize("bound", [1, 17, 80, 151, 220])
    def test_bound_computes_exactly_the_reachable_cells(self, bound):
        cache = live_cache()
        reachable = {
            cache._cell(n, m)
            for n in range(1, bound + 1)
            for m in range(n + 1)
        } - {None}
        assert cache.precompute(bound) == len(reachable)
        assert set(cache._plans) == reachable

    def test_bound_220_fills_the_rows_up_to_200(self):
        cache = live_cache()
        assert cache.precompute(220) == 25
        assert {clients for clients, _ in cache._plans} == {25, 50, 100, 200}


class TestLookup:
    def test_exact_cell_is_optimal(self):
        cache = make_cache()
        plan = cache.lookup(200, 40)
        assert plan.algorithm == "cached"
        assert plan.expected_saved == pytest.approx(
            dp_fast_value(200, 40, 20), abs=1e-9
        )

    def test_offgrid_query_near_optimal(self):
        cache = make_cache()
        plan = cache.lookup(215, 35)
        assert plan.n_clients == 215
        assert sum(plan.group_sizes) == 215
        optimal = dp_fast_value(215, 35, 20)
        assert plan.expected_saved >= 0.9 * optimal

    def test_far_offgrid_falls_back_to_greedy(self):
        cache = make_cache()
        plan = cache.lookup(10_000, 500)
        assert plan.algorithm == "greedy"
        assert cache.fallbacks == 1

    def test_replica_mismatch_falls_back(self):
        cache = make_cache()
        plan = cache(300, 40, 99)
        assert plan.algorithm == "greedy"

    def test_counters(self):
        cache = make_cache()
        cache.lookup(200, 40)
        cache.lookup(210, 40)
        assert cache.hits == 2

    def test_validation(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.lookup(100, 200)


class TestAsPlanner:
    def test_drives_the_shuffle_engine(self):
        cache = make_cache()
        engine = ShuffleEngine(
            n_replicas=20,
            planner=cache,
            rng=np.random.default_rng(17),
        )
        state = engine.run(benign=350, bots=50, target_fraction=0.8,
                           max_rounds=400)
        assert state.saved_fraction >= 0.8
        assert cache.hits > 0


class TestHelpers:
    def test_nearest(self):
        grid = (10, 20, 40)
        assert _nearest(grid, 5) == 10
        assert _nearest(grid, 14) == 10
        assert _nearest(grid, 16) == 20
        assert _nearest(grid, 100) == 40
        assert _nearest(grid, 30) == 20  # tie goes low

    def test_repair_adds(self):
        sizes = [5, 5, 90]
        _repair(sizes, 110)
        assert sum(sizes) == 110
        assert sizes[2] == 100  # largest group absorbs

    def test_repair_removes(self):
        sizes = [5, 5, 90]
        _repair(sizes, 80)
        assert sum(sizes) == 80
        assert min(sizes) >= 0

    def test_repair_removes_more_than_largest(self):
        sizes = [4, 4, 4]
        _repair(sizes, 3)
        assert sum(sizes) == 3
        assert all(size >= 0 for size in sizes)
