"""Contract tests for the unified ``repro.core.api`` seam.

Covers the request dataclasses, method dispatch (including ``"auto"``),
observability hooks, and the planner-factory adapter.
"""

from __future__ import annotations

import numpy as np
import pytest

# Top-level facade: the public spelling every consumer should use.
from repro import (
    EstimateRequest,
    PlanRequest,
    estimate,
    plan,
)
from repro.core import api
from repro.core.plan_cache import PlanCache
from repro.obs import Instruments


def _small_cache() -> PlanCache:
    return PlanCache(
        n_replicas=3, client_grid=(10, 20), bot_grid=(2, 4)
    )


class TestEstimateRequest:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown estimate method"):
            EstimateRequest(n_attacked=3, method="bogus")

    def test_sizes_normalized_to_tuple(self):
        request = EstimateRequest(n_attacked=1, sizes=[3, 4, 5])
        assert request.sizes == (3, 4, 5)
        assert isinstance(request.sizes, tuple)

    def test_requests_are_hashable_cache_keys(self):
        a = EstimateRequest(n_attacked=3, n_replicas=10, upper_bound=50)
        b = EstimateRequest(n_attacked=3, n_replicas=10, upper_bound=50)
        assert a == b
        assert hash(a) == hash(b)

    def test_log_prior_excluded_from_equality(self):
        prior = np.zeros(51)
        a = EstimateRequest(
            n_attacked=3, n_replicas=10, upper_bound=50, log_prior=prior
        )
        b = EstimateRequest(n_attacked=3, n_replicas=10, upper_bound=50)
        assert a == b

    def test_auto_resolves_from_evidence_shape(self):
        uniform = EstimateRequest(
            n_attacked=3, n_replicas=10, upper_bound=50
        )
        weighted = EstimateRequest(n_attacked=3, sizes=(5, 5, 5))
        assert uniform.resolved_method() == "mle"
        assert weighted.resolved_method() == "weighted"

    def test_uniform_requires_replicas_and_upper(self):
        with pytest.raises(ValueError, match="requires n_replicas"):
            estimate(EstimateRequest(n_attacked=3, upper_bound=10))
        with pytest.raises(ValueError, match="requires upper_bound"):
            estimate(EstimateRequest(n_attacked=3, n_replicas=10))

    def test_weighted_requires_sizes(self):
        with pytest.raises(ValueError, match="requires the observed"):
            estimate(
                EstimateRequest(
                    n_attacked=3,
                    n_replicas=10,
                    upper_bound=20,
                    method="weighted",
                )
            )

    def test_moment_rejects_prior(self):
        with pytest.raises(ValueError, match="cannot apply a log_prior"):
            estimate(
                EstimateRequest(
                    n_attacked=3,
                    n_replicas=10,
                    upper_bound=20,
                    method="moment",
                    log_prior=np.zeros(21),
                )
            )

    def test_replicas_inferred_from_sizes(self):
        got = estimate(
            EstimateRequest(
                n_attacked=2,
                sizes=(4, 4, 4, 4, 4),
                upper_bound=20,
                method="mle",
            )
        )
        assert got.n_replicas == 5


class TestPlanRequest:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown plan method"):
            PlanRequest(n_clients=10, n_bots=2, n_replicas=3, method="x")

    def test_cached_requires_cache(self):
        with pytest.raises(ValueError, match="requires a cache"):
            PlanRequest(
                n_clients=10, n_bots=2, n_replicas=3, method="cached"
            )

    def test_auto_prefers_cache_when_present(self):
        bare = PlanRequest(n_clients=10, n_bots=2, n_replicas=3)
        cached = PlanRequest(
            n_clients=10, n_bots=2, n_replicas=3,
            cache=_small_cache(),
        )
        assert bare.resolved_method() == "greedy"
        assert cached.resolved_method() == "cached"

    def test_cache_excluded_from_equality(self):
        a = PlanRequest(
            n_clients=10, n_bots=2, n_replicas=3, cache=_small_cache()
        )
        b = PlanRequest(n_clients=10, n_bots=2, n_replicas=3)
        assert a == b


class TestDispatch:
    def test_each_planner_method_routes(self):
        for method in ("greedy", "even", "dp", "dp_fast"):
            shuffle = plan(
                PlanRequest(
                    n_clients=30, n_bots=6, n_replicas=4, method=method
                )
            )
            assert shuffle.algorithm in (method, "greedy", "even",
                                         "dp", "dp_fast")
            assert sum(shuffle.group_sizes) == 30

    def test_cached_method_serves_from_cache(self):
        cache = PlanCache(
            n_replicas=5, client_grid=(20, 40, 60), bot_grid=(4, 8, 16)
        )
        cache.precompute()
        request = PlanRequest(
            n_clients=40, n_bots=8, n_replicas=5, method="cached",
            cache=cache,
        )
        first = plan(request)
        second = plan(request)
        assert first.group_sizes == second.group_sizes

    def test_estimator_methods_route(self):
        mle = estimate(
            EstimateRequest(
                n_attacked=4, n_replicas=10, upper_bound=60, method="mle"
            )
        )
        moment = estimate(
            EstimateRequest(
                n_attacked=4, n_replicas=10, upper_bound=60,
                method="moment",
            )
        )
        weighted = estimate(
            EstimateRequest(n_attacked=2, sizes=(6, 6, 6, 6, 6))
        )
        assert mle.m_hat >= 4
        assert moment.m_hat >= 4
        assert 2 <= weighted.m_hat <= 30

    def test_planner_factory_adapts_positional_protocol(self):
        source = api.planner("greedy")
        direct = plan(
            PlanRequest(n_clients=30, n_bots=6, n_replicas=4,
                        method="greedy")
        )
        assert source(30, 6, 4).group_sizes == direct.group_sizes
        assert source.__name__ == "greedy"

    def test_planner_factory_rejects_cached(self):
        with pytest.raises(ValueError, match="unknown planner"):
            api.planner("cached")

    def test_estimate_records_span_and_counter(self):
        instruments = Instruments.create()
        estimate(
            EstimateRequest(
                n_attacked=3, n_replicas=10, upper_bound=30
            ),
            instruments=instruments,
        )
        names = [span.name for span in instruments.spans.spans]
        assert "core_estimate" in names
        counter = instruments.registry.counter(
            "core_estimate_total", "", ("method",)
        )
        assert counter.value(method="mle") == 1.0

    def test_plan_records_span_and_counter(self):
        instruments = Instruments.create()
        plan(
            PlanRequest(n_clients=20, n_bots=4, n_replicas=3),
            instruments=instruments,
        )
        names = [span.name for span in instruments.spans.spans]
        assert "core_plan" in names
        counter = instruments.registry.counter(
            "core_plan_total", "", ("method",)
        )
        assert counter.value(method="greedy") == 1.0
