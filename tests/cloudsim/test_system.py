"""Tests for the CloudDefenseSystem facade and metrics collection."""

from __future__ import annotations

import pytest

from repro.cloudsim.system import CloudConfig, CloudDefenseSystem


class TestConfig:
    def test_defaults_valid(self):
        CloudConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            CloudConfig(n_domains=0)
        with pytest.raises(ValueError):
            CloudConfig(shuffle_replicas=0)

    # A zero period re-arms its timer at one sim time until the event cap;
    # a negative delay fails only when its first event is scheduled.
    def test_rejects_zero_detection_interval(self):
        with pytest.raises(ValueError, match="detection_interval"):
            CloudConfig(detection_interval=0.0)

    def test_rejects_zero_think_time(self):
        with pytest.raises(ValueError, match="think_time"):
            CloudConfig(think_time=0.0)

    def test_rejects_negative_boot_delay(self):
        with pytest.raises(ValueError, match="boot_delay"):
            CloudConfig(boot_delay=-1.0)
        CloudConfig(boot_delay=0.0)

    def test_rejects_negative_migration_grace(self):
        with pytest.raises(ValueError, match="migration_grace"):
            CloudConfig(migration_grace=-1.0)
        CloudConfig(migration_grace=0.0)


class TestBuild:
    def test_topology(self):
        system = CloudDefenseSystem(CloudConfig(n_domains=3,
                                                initial_replicas_per_domain=2))
        system.build()
        assert len(system.ctx.balancers) == 3
        assert len(system.ctx.active_replicas()) == 6

    def test_build_idempotent(self):
        system = CloudDefenseSystem()
        system.build()
        replicas = len(system.ctx.all_replicas())
        system.build()
        assert len(system.ctx.all_replicas()) == replicas


class TestQuietOperation:
    def test_no_attack_no_shuffles(self):
        system = CloudDefenseSystem(seed=1)
        system.add_benign_clients(40)
        report = system.run(duration=60.0)
        assert report.shuffles == 0
        assert report.benign_success_overall > 0.95
        assert report.benign_migrations == 0.0
        assert report.naive_waste_ratio == 0.0

    def test_metrics_samples_cover_run(self):
        system = CloudDefenseSystem(seed=2)
        system.add_benign_clients(10)
        report = system.run(duration=30.0)
        assert len(report.samples) >= 25
        times = [s.time for s in report.samples]
        assert times == sorted(times)


class TestUnderAttack:
    def test_attack_triggers_shuffles_and_recovery(self):
        system = CloudDefenseSystem(seed=3)
        system.add_benign_clients(80)
        system.add_persistent_bots(8)
        report = system.run(duration=150.0)
        assert report.shuffles >= 1
        assert report.replicas_recycled >= 1
        # The tail of the run should be healthy again.
        assert report.benign_success_last_quarter > 0.9
        assert report.naive_waste_ratio > 0.0

    def test_computational_attack_detected(self):
        config = CloudConfig(naive_pps=0.0)  # no network flood at all
        system = CloudDefenseSystem(config, seed=4)
        system.add_benign_clients(40)
        system.add_persistent_bots(10, computational=True)
        report = system.run(duration=120.0)
        # CPU-exhaustion alone must still trigger the moving target.
        assert report.shuffles >= 1

    def test_report_describe(self):
        system = CloudDefenseSystem(seed=5)
        system.add_benign_clients(10)
        report = system.run(duration=20.0)
        text = report.describe()
        assert "shuffles=" in text
        assert "benign_ok=" in text
