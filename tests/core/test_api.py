"""Contract tests for the unified ``repro.core.api`` seam.

Covers the request dataclasses, dispatch (each request routes to its
kernel bit for bit), observability hooks,
the planner-factory adapter, and the field and method tables of
``docs/core-api.md``.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

# Top-level facade: the public spelling every consumer should use.
from repro import (
    EstimateRequest,
    PlanRequest,
    estimate,
    plan,
)
from repro.core import api
from repro.core.dp import _dp_plan
from repro.core.dp_fast import _dp_fast_plan
from repro.core.estimator import _estimate_mle
from repro.core.even import _even_plan
from repro.core.greedy import _greedy_plan
from repro.obs import Instruments

DOC = Path(__file__).resolve().parents[2] / "docs" / "core-api.md"


class TestEstimateRequest:
    def test_requests_are_hashable_cache_keys(self):
        a = EstimateRequest(n_attacked=3, n_replicas=10, upper_bound=50)
        b = EstimateRequest(n_attacked=3, n_replicas=10, upper_bound=50)
        assert a == b
        assert hash(a) == hash(b)


class TestPlanRequest:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown plan method"):
            PlanRequest(n_clients=10, n_bots=2, n_replicas=3, method="x")

    def test_defaults_to_greedy(self):
        assert PlanRequest(n_clients=10, n_bots=2, n_replicas=3).method == (
            "greedy"
        )


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

    @pytest.mark.parametrize(
        "method, kernel",
        [
            ("greedy", _greedy_plan),
            ("even", _even_plan),
            ("dp", _dp_plan),
            ("dp_fast", _dp_fast_plan),
        ],
    )
    def test_plan_is_its_kernel_bit_for_bit(self, method, kernel):
        assert set(api._PLANNER_IMPLS) == set(api.PLAN_METHODS)
        for n_clients, n_bots, n_replicas in [(30, 6, 4), (57, 13, 5)]:
            got = plan(PlanRequest(n_clients, n_bots, n_replicas, method))
            want = kernel(n_clients, n_bots, n_replicas)
            assert got == want
            assert got.expected_saved == want.expected_saved

    def test_estimate_is_its_kernel_bit_for_bit(self):
        for x, p, upper in [(4, 10, 120), (9, 10, 40), (10, 10, 40)]:
            assert estimate(EstimateRequest(x, p, upper)) == _estimate_mle(
                x, p, upper
            )

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


def _doc_section(heading: str) -> str:
    """The ``### `heading``` section of ``docs/core-api.md``."""
    text = DOC.read_text(encoding="utf-8")
    start = text.index(f"### `{heading}`")
    end = text.find("\n#", start + 1)
    return text[start:] if end < 0 else text[start:end]


class TestDocTables:
    """``docs/core-api.md`` lists what the request types accept."""

    @pytest.mark.parametrize(
        "request_type, methods",
        [
            (EstimateRequest, ()),
            (PlanRequest, api.PLAN_METHODS),
        ],
    )
    def test_fields_and_methods_match_the_code(self, request_type, methods):
        section = _doc_section(request_type.__name__)
        rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert rows == [f.name for f in dataclasses.fields(request_type)]
        # One method row where the request takes a method, none otherwise.
        method_rows = re.findall(
            r"^\| `method` \|(.*)$", section, re.MULTILINE
        )
        assert len(method_rows) == int(bool(methods))
        assert tuple(
            re.findall(r'`"(\w+)"`', "".join(method_rows))
        ) == methods
        bullets = re.findall(r"^- \*\*`(\w+)`\*\*", section, re.MULTILINE)
        assert sorted(bullets) == sorted(methods)
