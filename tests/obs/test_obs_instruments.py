"""Tests for the uniform ``instruments=`` handle and no-op semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloudsim import CloudConfig, CloudDefenseSystem
from repro.core import ShuffleEngine
from repro.obs import (
    DISABLED,
    EventLog,
    Instruments,
    get_default_instruments,
    resolve_instruments,
    set_default_instruments,
)


@pytest.fixture(autouse=True)
def clean_default():
    """Never leak a process-wide default across tests."""
    previous = set_default_instruments(None)
    yield
    set_default_instruments(previous)


class TestResolution:
    def test_disabled_by_default(self):
        assert resolve_instruments(None) is DISABLED
        assert get_default_instruments() is None

    def test_explicit_handle_wins_over_default(self):
        default = Instruments.create()
        explicit = Instruments.create()
        set_default_instruments(default)
        assert resolve_instruments(explicit) is explicit
        assert resolve_instruments(None) is default

    def test_set_default_returns_previous_for_restore(self):
        first = Instruments.create()
        assert set_default_instruments(first) is None
        second = Instruments.create()
        assert set_default_instruments(second) is first
        assert set_default_instruments(None) is second


def des_run(traced: bool) -> tuple[int, list[tuple]]:
    """Seed 3, 300 benign + 30 bots over 60 sim-s: the events processed
    and each shuffle's (group sizes, estimated bots)."""
    system = CloudDefenseSystem(CloudConfig(), seed=3)
    if traced:
        system.ctx.attach_instruments()
    system.add_benign_clients(300)
    system.add_persistent_bots(30)
    system.run(60.0)
    return system.ctx.sim.events_processed, [
        (record.group_sizes, record.estimated_bots)
        for record in system.ctx.coordinator.shuffles
    ]


def assert_holds_nothing(bundle: Instruments) -> None:
    assert len(bundle.spans) == 0
    assert len(bundle.registry) == 0
    assert len(bundle.events) == 0
    assert bundle.export_state() == {"metrics": {}, "spans": [], "events": []}


class TestDisabledNoOp:
    """``instruments=None`` must leave zero observable footprint."""

    def test_engine_defaults_to_disabled(self):
        engine = ShuffleEngine(n_replicas=10)
        assert engine.instruments is DISABLED

    def test_disabled_channels_ignore_every_update(self):
        with DISABLED.spans.span("op", a=1) as span:
            span.set(b=2)
            with DISABLED.spans.span("inner"):
                pass
        assert span.attrs == {}
        DISABLED.registry.counter("c_total", "C.", ("k",)).inc(k=1)
        gauge = DISABLED.registry.gauge("g")
        gauge.set(3.0)
        gauge.dec()
        DISABLED.registry.histogram("h").observe(0.2)
        DISABLED.emit(1.0, "tick", n=1)
        assert gauge.value() == 0.0
        assert DISABLED.registry.get("c_total") is None
        assert_holds_nothing(DISABLED)

    def test_emit_sites_can_ask_whether_anything_is_kept(self):
        assert not DISABLED.events.admits("trust_snapshot")
        assert not any(
            metric.records for metric in (
                DISABLED.registry.counter("c_total"),
                DISABLED.registry.gauge("g"),
                DISABLED.registry.histogram("h"),
            )
        )
        live = Instruments.create()
        assert live.events.admits("trust_snapshot")
        assert all(
            metric.records for metric in (
                live.registry.counter("c_total"),
                live.registry.gauge("g"),
                live.registry.histogram("h"),
            )
        )
        picky = EventLog(kinds=frozenset({"shuffle"}))
        assert picky.admits("shuffle") and not picky.admits("tick")

    def test_disabled_engine_and_des_runs_leave_disabled_empty(self):
        for estimator in ("oracle", "posterior", "mle"):
            ShuffleEngine(
                n_replicas=20,
                estimator=estimator,
                rng=np.random.default_rng(7),
            ).run(benign=200, bots=50, max_rounds=10)
        assert des_run(traced=False)[1], "the DES run must shuffle"
        assert_holds_nothing(DISABLED)

    def test_des_runs_with_and_without_instruments_are_identical(self):
        plain = des_run(traced=False)
        assert plain[0] == 31_232 and len(plain[1]) == 2
        assert des_run(traced=True) == plain

    def test_disabled_run_records_nothing_anywhere(self):
        engine = ShuffleEngine(
            n_replicas=20, rng=np.random.default_rng(7)
        )
        engine.run(benign=200, bots=50, max_rounds=10)
        assert get_default_instruments() is None

    def test_disabled_and_enabled_runs_are_identical(self):
        def trajectory(instruments):
            engine = ShuffleEngine(
                n_replicas=20,
                rng=np.random.default_rng(7),
                instruments=instruments,
            )
            state = engine.run(benign=200, bots=50, max_rounds=30)
            return [round_.benign_saved for round_ in state.rounds]

        plain = trajectory(None)
        instrumented = trajectory(Instruments.create())
        assert plain == instrumented

    def test_default_install_enables_engines_built_later(self):
        bundle = Instruments.create(source="core")
        set_default_instruments(bundle)
        engine = ShuffleEngine(
            n_replicas=20, rng=np.random.default_rng(7)
        )
        state = engine.run(benign=200, bots=50, max_rounds=30)
        rounds = bundle.registry.counter("shuffle_rounds_total").value(
            planner="greedy", estimator="oracle"
        )
        assert rounds == len(state.rounds)
        assert len(bundle.spans.named("shuffle_round")) == len(state.rounds)


class TestEnabledChannels:
    def test_span_tree_per_round(self):
        bundle = Instruments.create()
        engine = ShuffleEngine(
            n_replicas=20,
            rng=np.random.default_rng(3),
            instruments=bundle,
        )
        engine.run(benign=100, bots=30, max_rounds=5)
        roots = bundle.spans.roots()
        assert roots, "expected at least one shuffle_round span"
        child_names = {
            span.name
            for root in roots
            for span in bundle.spans.children_of(root)
        }
        assert child_names <= {"estimate", "plan", "shuffle"}
        assert "plan" in child_names
        assert "shuffle" in child_names

    @pytest.mark.parametrize("estimator", ["posterior", "mle"])
    def test_explicit_handle_reaches_the_policy(self, estimator):
        bundle = Instruments.create()
        engine = ShuffleEngine(
            n_replicas=10,
            estimator=estimator,
            rng=np.random.default_rng(3),
            instruments=bundle,
        )
        state = engine.run(benign=100, bots=30, max_rounds=5)
        by_id = {span.span_id: span for span in bundle.spans.spans}
        parents = {
            name: {by_id[s.parent_id].name for s in bundle.spans.named(name)}
            for name in ("core_plan", "core_estimate")
        }
        assert parents == {
            "core_plan": {"plan"},
            "core_estimate": {"estimate"},
        }
        assert len(bundle.spans.named("core_plan")) == len(state.rounds)
        assert len(bundle.spans.named("core_estimate")) == len(state.rounds)

    def test_export_state_is_json_ready(self):
        import json

        bundle = Instruments.create(source="test")
        bundle.emit(1.0, "tick", n=1)
        with bundle.spans.span("op"):
            pass
        bundle.registry.counter("c_total", "C.").inc()
        json.dumps(bundle.export_state())
