"""Sketch-backed saturation monitor: a verdict-preserving drop-in.

The exact monitor answers "is this replica saturated?" from a per-event
deque; the sketch monitor answers the same question from fixed-memory
epoch sketches and additionally names the top talkers.  These tests pin
the drop-in contract under a fake clock, and the backend/report wiring
that turns attribution into coordinator evidence.
"""

from __future__ import annotations

import pytest

from repro.service import ReplicaBackend, SaturationMonitor, ServiceConfig
from repro.service.tokens import SketchSaturationMonitor


def _pair(clock, window: float = 1.0, min_events: int = 4):
    exact = SaturationMonitor(
        window=window, overload_ratio=0.5, min_events=min_events,
        clock=clock,
    )
    sketch = SketchSaturationMonitor(
        window=window, overload_ratio=0.5, min_events=min_events,
        clock=clock,
    )
    return exact, sketch


class TestVerdictParity:
    @pytest.mark.parametrize("throttled_of_8", [0, 2, 4, 6, 8])
    def test_same_verdict_at_every_ratio(self, clock, throttled_of_8):
        exact, sketch = _pair(clock)
        for i in range(8):
            admitted = i >= throttled_of_8
            exact.record(admitted, client_id=f"c-{i}")
            sketch.record(admitted, client_id=f"c-{i}")
        assert sketch.counts() == exact.counts()
        assert sketch.throttle_ratio() == pytest.approx(
            exact.throttle_ratio()
        )
        assert sketch.saturated() == exact.saturated()

    def test_min_events_gate_matches(self, clock):
        exact, sketch = _pair(clock, min_events=10)
        for _ in range(9):
            exact.record(False)
            sketch.record(False)
        assert not exact.saturated() and not sketch.saturated()
        exact.record(False)
        sketch.record(False)
        assert exact.saturated() and sketch.saturated()

    def test_both_cool_down_after_the_window(self, clock):
        exact, sketch = _pair(clock, window=1.0)
        for _ in range(20):
            exact.record(False, client_id="bot")
            sketch.record(False, client_id="bot")
        assert exact.saturated() and sketch.saturated()
        # A full window plus one sketch epoch of slack: both verdicts
        # must have decayed to quiet.
        clock.advance(1.0 + 0.25)
        assert exact.counts() == (0, 0)
        assert sketch.counts() == (0, 0)
        assert not exact.saturated() and not sketch.saturated()

    def test_reset_clears_both(self, clock):
        exact, sketch = _pair(clock)
        for _ in range(8):
            exact.record(False)
            sketch.record(False)
        exact.reset()
        sketch.reset()
        assert exact.counts() == sketch.counts() == (0, 0)


class TestAttribution:
    def test_heavy_hitters_name_the_flooder(self, clock):
        _, sketch = _pair(clock)
        for i in range(60):
            sketch.record(False, client_id="bot-9")
        for i in range(20):
            sketch.record(True, client_id=f"c-{i}")
        top = sketch.heavy_hitters(1)
        assert top and top[0].key == "bot-9"
        assert top[0].count >= 60

    def test_state_bytes_flat_in_request_rate(self, clock):
        _, sketch = _pair(clock)
        before = sketch.state_bytes()
        for i in range(3000):
            sketch.record(False, client_id=f"c-{i}")
        # The deque-based monitor would hold 3000 events here; the
        # sketch footprint moves only by the bounded top-k key table.
        assert sketch.state_bytes() - before < 1024

    def test_rejects_bad_overload_ratio(self, clock):
        with pytest.raises(ValueError):
            SketchSaturationMonitor(
                window=1.0, overload_ratio=0.0, min_events=1, clock=clock
            )


def _sketch_config(config: ServiceConfig) -> ServiceConfig:
    return ServiceConfig(
        n_replicas=config.n_replicas,
        telemetry_port=None,
        bucket_rate=config.bucket_rate,
        bucket_burst=config.bucket_burst,
        saturation_window=config.saturation_window,
        overload_ratio=config.overload_ratio,
        min_window_events=config.min_window_events,
        detection_interval=config.detection_interval,
        detection_confirmations=config.detection_confirmations,
        seed=config.seed,
        detector="sketch",
    )


class TestBackendWiring:
    def test_exact_mode_has_no_report(self, config, clock):
        backend = ReplicaBackend(config, "r-1", clock=clock)
        assert isinstance(backend.monitor, SaturationMonitor)
        assert backend.heavy_hitter_report() is None
        assert "heavy_hitters" not in backend.snapshot()

    def test_sketch_mode_reports_who_is_hammering(self, config, clock):
        backend = ReplicaBackend(
            _sketch_config(config), "r-1", clock=clock
        )
        assert isinstance(backend.monitor, SketchSaturationMonitor)
        backend.admit("bot-0")
        for seq in range(40):
            backend._answer([f"REQ bot-0 {seq}"])
        assert backend.attacked()

        report = backend.heavy_hitter_report()
        assert report is not None
        assert report.replica_id == "r-1"
        assert report.total == 40
        assert report.top and report.top[0].key == "bot-0"
        assert report.suspects(min_share=0.5) == ["bot-0"]

        snap = backend.snapshot()
        assert snap["detector"] == "sketch"
        assert snap["heavy_hitters"][0][0] == "bot-0"

    def test_sketch_mode_matches_exact_attack_verdict(self, config, clock):
        exact = ReplicaBackend(config, "r-1", clock=clock)
        sketch = ReplicaBackend(
            _sketch_config(config), "r-2", clock=clock
        )
        for backend in (exact, sketch):
            backend.admit("u-1")
            backend.admit("bot-0")
        for seq in range(30):
            # One well-behaved client inside its bucket, one flooder.
            if seq % 10 == 0:
                clock.advance(0.05)
                exact._answer([f"REQ u-1 {seq}"])
                sketch._answer([f"REQ u-1 {seq}"])
            exact._answer([f"REQ bot-0 {seq}"])
            sketch._answer([f"REQ bot-0 {seq}"])
        assert exact.attacked() == sketch.attacked() is True
