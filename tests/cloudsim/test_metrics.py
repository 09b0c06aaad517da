"""Unit tests for the QoS metrics collector."""

from __future__ import annotations

import pytest

from repro.cloudsim.clients import BenignClient
from repro.cloudsim.metrics import MetricsCollector, QoSWindow
from repro.cloudsim.system import CloudConfig, CloudContext, CloudDefenseSystem
from repro.sim.qos import QoSWindow as SharedQoSWindow


@pytest.fixture
def ctx():
    return CloudContext(CloudConfig(), seed=95)


class TestWindowSample:
    """The per-window sample record, :class:`QoSWindow`."""

    def test_shared_schema_alias(self):
        # One comparison format: cloudsim's QoSWindow IS the shared
        # record the live service telemetry emits.
        assert QoSWindow is SharedQoSWindow

    def test_ratios(self):
        sample = QoSWindow(
            time=1.0, benign_sent=10, benign_ok=8,
            latency_sum=1.6, latency_count=8, attacked_replicas=0,
            active_replicas=4, shuffles_completed=0,
        )
        assert sample.success_ratio == pytest.approx(0.8)
        assert sample.mean_latency == pytest.approx(0.2)

    def test_empty_window_defaults(self):
        sample = QoSWindow(
            time=0.0, benign_sent=0, benign_ok=0,
            latency_sum=0.0, latency_count=0, attacked_replicas=0,
            active_replicas=0, shuffles_completed=0,
        )
        assert sample.success_ratio == 1.0
        assert sample.mean_latency == 0.0

    def test_failed_but_completed_latency_counts(self):
        """A failed request with a measured duration is part of the
        latency mean — an ok-only denominator would hide exactly the
        slow failures an attack produces."""
        sample = QoSWindow(
            time=1.0, benign_sent=4, benign_ok=2,
            latency_sum=2.0, latency_count=4, attacked_replicas=1,
            active_replicas=4, shuffles_completed=0,
        )
        assert sample.mean_latency == pytest.approx(0.5)


class TestCollector:
    def test_records_per_kind(self, ctx):
        collector = MetricsCollector(ctx)
        benign = BenignClient(ctx, "u1")
        collector.record_request(benign, ok=True, latency=0.1)
        collector.record_request(benign, ok=False, latency=None)
        assert collector.benign_success_ratio() == pytest.approx(0.5)
        assert collector.totals["benign"]["sent"] == 2

    def test_failed_request_latency_not_dropped(self, ctx):
        """Regression: failed-but-completed requests used to vanish
        from the window latency sum entirely."""
        collector = MetricsCollector(ctx)
        benign = BenignClient(ctx, "u1")
        collector.record_request(benign, ok=True, latency=0.1)
        collector.record_request(benign, ok=False, latency=0.3)
        collector.record_request(benign, ok=False, latency=None)
        assert collector._window_latency == pytest.approx(0.4)
        assert collector._window_latency_count == 2
        assert collector.totals["benign"]["latency"] == pytest.approx(0.4)

    def test_unknown_kind_defaults_to_perfect(self, ctx):
        collector = MetricsCollector(ctx)
        assert collector.benign_success_ratio("persistent") == 1.0

    def test_snapshots_accumulate(self):
        system = CloudDefenseSystem(seed=96)
        system.add_benign_clients(10)
        system.run(duration=12.0)
        samples = system.ctx.metrics.samples
        assert len(samples) >= 10
        assert all(
            later.time > earlier.time
            for earlier, later in zip(samples, samples[1:])
        )

    def test_success_ratio_between_empty_slice(self, ctx):
        collector = MetricsCollector(ctx)
        assert collector.success_ratio_between(0.0, 1.0) == 1.0

    def test_stop_halts_snapshots(self):
        system = CloudDefenseSystem(seed=97)
        system.add_benign_clients(5)
        system.build()
        system.ctx.metrics.stop()
        system.run(duration=10.0)
        assert system.ctx.metrics.samples == []


class TestQosTimelineShape:
    def test_attack_dips_then_recovers(self):
        """The canonical defense story told by the timeline itself:
        success ratio collapses when the flood lands and is restored
        after the shuffles."""
        system = CloudDefenseSystem(
            CloudConfig(naive_pps=80_000.0), seed=98
        )
        system.add_benign_clients(80)
        system.add_persistent_bots(10)
        report = system.run(duration=200.0)
        assert report.shuffles >= 1
        ratios = [sample.success_ratio for sample in report.samples
                  if sample.benign_sent > 0]
        trough = min(ratios)
        tail = ratios[-20:]
        assert trough < 0.9  # the attack visibly hurt
        assert sum(tail) / len(tail) > 0.95  # and was healed
