"""Plan cache at the query shapes the live coordinator used to issue.

The :class:`repro.service.coordinator.ServiceCoordinator` queried its
:class:`~repro.core.plan_cache.PlanCache` through the planner protocol
``cache(n_clients, believed, width)`` with shapes no offline sweep
exercises: the Theorem 1 bound as the bot count on round one, believed
counts clamped to the (shrinking) population, and widths different from
the cache's ``P`` during endgame dispersion.  The live policy now plans
with greedy; these tests pin the cache's surface with the live defaults
of :class:`repro.service.ServiceConfig` until the cache goes.
"""

from __future__ import annotations

import pytest

from repro.core.plan_cache import PlanCache
from repro.service import ServiceConfig


@pytest.fixture(scope="module")
def cache() -> PlanCache:
    config = ServiceConfig()
    cache = PlanCache(
        n_replicas=config.n_replicas,
        client_grid=config.plan_client_grid,
        bot_grid=config.plan_bot_grid,
    )
    cache.precompute()
    return cache


def test_round_one_theorem1_query_is_a_cache_hit(cache):
    # Round 1 of the acceptance scenario: 220 clients on the attacked
    # replicas, X = P degenerate, believed = the Theorem 1 bound at
    # P = 10, ceil(log(1/10) / log(9/10)) = 22.
    plan = cache(220, 22, 10)
    assert plan.algorithm == "cached"
    assert sum(plan.group_sizes) == 220
    assert plan.expected_saved > 0


def test_zero_bots_saves_everyone(cache):
    # M = 0 is legal at the cache layer (the coordinator clamps believed
    # to >= 1, but the planner protocol admits it).
    plan = cache.lookup(100, 0)
    assert sum(plan.group_sizes) == 100
    assert plan.expected_saved == pytest.approx(100.0)


def test_all_bots_saves_nobody(cache):
    # Endgame clamp: believed == n_clients.  Equation 1 must go to zero
    # — this is exactly the signal the coordinator quarantines on.
    plan = cache.lookup(50, 50)
    assert sum(plan.group_sizes) == 50
    assert plan.expected_saved == pytest.approx(0.0)


def test_dispersion_width_bypasses_the_cache(cache):
    # Endgame dispersion plans across width == n_clients != P; the
    # planner protocol must fall back to greedy, not mis-serve a P-way
    # table entry.
    before = cache.fallbacks
    plan = cache(20, 18, 20)
    assert cache.fallbacks == before + 1
    assert plan.algorithm == "greedy"
    assert plan.group_sizes == (1,) * 20  # singleton round


def test_small_subset_dispersion(cache):
    # Late rounds shrink the reshuffled subset below the smallest grid
    # cell; dispersion still plans them as singletons.
    plan = cache(5, 4, 5)
    assert plan.algorithm == "greedy"
    assert plan.group_sizes == (1, 1, 1, 1, 1)


def test_far_off_grid_falls_back_to_greedy(cache):
    # N = 5 vs nearest cell 25: relative gap 4.0 > 0.5 — repairing the
    # cached sizes would be meaningless, so greedy takes over even at
    # width == P.
    before = cache.fallbacks
    plan = cache.lookup(5, 2)
    assert cache.fallbacks == before + 1
    assert plan.algorithm == "greedy"
    assert sum(plan.group_sizes) == 5


def test_off_cell_queries_are_repaired_to_exact_population(cache):
    # Mid-run populations never sit on grid points; the snapped cell's
    # sizes must be repaired to the exact client count and re-scored.
    for n_clients, believed in [(137, 22), (171, 20), (93, 7)]:
        plan = cache(n_clients, believed, 10)
        assert plan.algorithm == "cached"
        assert sum(plan.group_sizes) == n_clients
        assert plan.n_bots == believed


def test_clamped_believed_stays_within_cache_contract(cache):
    # The coordinator clamps believed to [1, n_clients]; the boundary
    # query must be servable without tripping the cache's validation.
    plan = cache(25, 25, 10)
    assert sum(plan.group_sizes) == 25
    assert plan.expected_saved == pytest.approx(0.0)
