"""Contract tests for the ``repro.core.api`` seam.

Covers dispatch (each call routes to its kernel bit for bit), the one
"unknown plan method" check and the planners' one argument check,
observability hooks, the planner-factory adapter, and the parameter
and method tables of ``docs/core-api.md``.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

# Top-level facade: the public spelling every consumer should use.
from repro import ShuffleEngine, estimate, plan
from repro.core import api
from repro.core.dp import _dp_plan
from repro.core.dp_fast import _dp_fast_plan
from repro.core.estimator import _estimate_mle
from repro.core.even import _even_plan
from repro.core.greedy import _greedy_plan
from repro.core.policy import PosteriorPolicy, ShufflePolicy
from repro.obs import Instruments

DOC = Path(__file__).resolve().parents[2] / "docs" / "core-api.md"


class TestDispatch:
    def test_each_planner_method_routes(self):
        for method in ("greedy", "even", "dp", "dp_fast"):
            shuffle = plan(30, 6, 4, method=method)
            assert shuffle.algorithm in (method, "greedy", "even",
                                         "dp", "dp_fast")
            assert sum(shuffle.group_sizes) == 30

    def test_plan_defaults_to_greedy(self):
        default = inspect.signature(plan).parameters["method"].default
        assert default == "greedy"
        assert plan(30, 6, 4).algorithm == "greedy"

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
        for n_clients, n_bots, n_replicas in [(30, 6, 4), (57, 13, 5)]:
            got = plan(n_clients, n_bots, n_replicas, method)
            want = kernel(n_clients, n_bots, n_replicas)
            assert got == want
            assert got.expected_saved == want.expected_saved

    @pytest.mark.parametrize("method", api.PLAN_METHODS)
    def test_plan_is_its_planner_bit_for_bit(self, method):
        source = api.planner(method)
        for n_clients, n_bots, n_replicas in [(30, 6, 4), (57, 13, 5)]:
            got = plan(n_clients, n_bots, n_replicas, method=method)
            want = source(n_clients, n_bots, n_replicas)
            assert got == want
            assert got.expected_saved == want.expected_saved

    def test_estimate_is_its_kernel_bit_for_bit(self):
        for x, p, upper in [(4, 10, 120), (9, 10, 40), (10, 10, 40)]:
            assert estimate(x, p, upper) == _estimate_mle(x, p, upper)

    def test_planner_factory_adapts_positional_protocol(self):
        source = api.planner("greedy")
        direct = plan(30, 6, 4, method="greedy")
        assert source(30, 6, 4).group_sizes == direct.group_sizes
        assert source.__name__ == "greedy"

    def test_planner_factory_rejects_cached(self):
        with pytest.raises(ValueError, match="unknown plan method"):
            api.planner("cached")

    def test_one_unknown_plan_method_wording(self):
        # Every way to name a planner reaches the one check in core.api.
        want = (
            "unknown plan method 'x'; choose from "
            "('greedy', 'even', 'dp', 'dp_fast')"
        )
        for ask in (
            lambda: plan(10, 2, 3, method="x"),
            lambda: api.planner("x"),
            lambda: ShuffleEngine(n_replicas=3, planner="x"),
            lambda: ShuffleEngine(n_replicas=3, planner="x",
                                  estimator="mle"),
            lambda: PosteriorPolicy(planner="x"),
            lambda: ShufflePolicy(planner="x"),
        ):
            with pytest.raises(ValueError) as caught:
                ask()
            assert str(caught.value) == want

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 0, 3), "n_clients=-1 must be >= 0"),
            ((10, 11, 3), "n_bots=11 must be within [0, 10]"),
            ((10, 2, 0), "n_replicas=0 must be >= 1"),
        ],
    )
    def test_planners_share_one_argument_check(self, args, message):
        for method in api.PLAN_METHODS:
            with pytest.raises(ValueError) as caught:
                plan(*args, method=method)
            assert str(caught.value) == message, method

    def test_estimate_records_span_and_counter(self):
        instruments = Instruments.create()
        estimate(3, 10, 30, instruments=instruments)
        names = [span.name for span in instruments.spans.spans]
        assert "core_estimate" in names
        counter = instruments.registry.counter(
            "core_estimate_total", "", ("method",)
        )
        assert counter.value(method="mle") == 1.0

    def test_plan_records_span_and_counter(self):
        instruments = Instruments.create()
        plan(20, 4, 3, instruments=instruments)
        names = [span.name for span in instruments.spans.spans]
        assert "core_plan" in names
        counter = instruments.registry.counter(
            "core_plan_total", "", ("method",)
        )
        assert counter.value(method="greedy") == 1.0


class TestOneIntegerRule:
    """Both core calls take their counts through ``operator.index``, as
    ``ShufflePlan.from_sizes`` takes sizes."""

    WANT = "'float' object cannot be interpreted as an integer"

    @pytest.mark.parametrize("method", api.PLAN_METHODS)
    def test_a_fractional_bot_count_is_one_type_error(self, method):
        # Greedy once raised numpy's IndexError here, dp a TypeError of
        # its own, and the others planned on.
        with pytest.raises(TypeError) as caught:
            plan(10, 2.5, 3, method=method)
        assert str(caught.value) == self.WANT

    @pytest.mark.parametrize("method", api.PLAN_METHODS)
    def test_a_bool_bot_count_is_the_int(self, method):
        # True once boolean-indexed the log t! table ("operands could
        # not be broadcast together").
        got = plan(10, True, 3, method=method)
        want = plan(10, 1, 3, method=method)
        assert got == want
        assert got.expected_saved == want.expected_saved
        assert type(got.n_bots) is int

    def test_a_fractional_upper_bound_is_a_type_error(self):
        # It was once carried into BotEstimate(upper_bound=50.5).
        with pytest.raises(TypeError) as caught:
            estimate(3, 10, 50.5)
        assert str(caught.value) == self.WANT

    def test_numpy_integers_come_back_as_python_ints(self):
        got = estimate(np.int64(3), np.int64(10), np.int64(50))
        assert got == estimate(3, 10, 50)
        assert type(got.upper_bound) is int and type(got.n_replicas) is int


def _doc_section(heading: str) -> str:
    """The ``### `heading``` section of ``docs/core-api.md``."""
    text = DOC.read_text(encoding="utf-8")
    start = text.index(f"### `{heading}`")
    end = text.find("\n#", start + 1)
    return text[start:] if end < 0 else text[start:end]


class TestDocTables:
    """``docs/core-api.md`` lists what the two calls accept."""

    @pytest.mark.parametrize(
        "call, methods",
        [
            (estimate, ()),
            (plan, api.PLAN_METHODS),
        ],
    )
    def test_fields_and_methods_match_the_code(self, call, methods):
        section = _doc_section(call.__name__)
        rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert rows == list(inspect.signature(call).parameters)
        # One method row where the call takes a method, none otherwise.
        method_rows = re.findall(
            r"^\| `method` \|(.*)$", section, re.MULTILINE
        )
        assert len(method_rows) == int(bool(methods))
        assert tuple(
            re.findall(r'`"(\w+)"`', "".join(method_rows))
        ) == methods
        bullets = re.findall(r"^- \*\*`(\w+)`\*\*", section, re.MULTILINE)
        assert sorted(bullets) == sorted(methods)
