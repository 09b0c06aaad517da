"""Tests for fault injection, healing, and scale-down."""

from __future__ import annotations

from repro.cloudsim.faults import ChaosMonkey
from repro.cloudsim.replica import ReplicaState
from repro.cloudsim.system import CloudConfig, CloudDefenseSystem
from repro.obs import EventLog


class TestReplicaFail:
    def test_fail_clears_state(self):
        system = CloudDefenseSystem(seed=61)
        system.build()
        replica = system.ctx.active_replicas()[0]
        replica.admit("c1", object())
        system.ctx.fail_replica(replica)
        assert replica.state is ReplicaState.FAILED
        assert not replica.is_active
        assert replica.n_clients == 0
        balancer = system.ctx.balancers[replica.endpoint.domain]
        assert replica.endpoint.address not in balancer.replicas


class TestHealing:
    def test_failed_replica_is_replaced(self):
        system = CloudDefenseSystem(CloudConfig(boot_delay=1.0), seed=62)
        system.build()
        victim = system.ctx.active_replicas()[0]
        domain = victim.endpoint.domain
        system.ctx.fail_replica(victim)
        system.ctx.sim.run_until(10.0)
        balancer = system.ctx.balancers[domain]
        assert (
            len(balancer.active_replicas())
            >= system.config.initial_replicas_per_domain
        )

    def test_clients_recover_from_crash(self):
        system = CloudDefenseSystem(CloudConfig(boot_delay=1.0), seed=63)
        system.add_benign_clients(30)
        system.ctx.sim.run_until(10.0)
        victim = max(
            system.ctx.active_replicas(), key=lambda r: r.n_clients
        )
        assert victim.n_clients > 0
        system.ctx.fail_replica(victim)
        report = system.run(duration=60.0)
        # Everyone who lost their replica re-entered and resumed service.
        rejoins = sum(client.stats.rejoins for client in system.benign)
        assert rejoins > 0
        assert report.benign_success_last_quarter > 0.9

    def test_scale_down_after_attack(self):
        """Post-mitigation the fleet shrinks back toward the baseline."""
        system = CloudDefenseSystem(CloudConfig(boot_delay=1.0), seed=64)
        system.add_benign_clients(60)
        system.add_persistent_bots(6)
        system.run(duration=300.0)
        baseline_total = (
            system.config.n_domains
            * system.config.initial_replicas_per_domain
        )
        active = len(system.ctx.active_replicas())
        # Shuffles ballooned the fleet mid-attack; idle extras get retired
        # afterwards.  Clients keep some above-baseline replicas alive, so
        # allow headroom — the point is it is far below the attack peak.
        assert active < baseline_total + system.config.shuffle_replicas * 3


class TestChaosMonkey:
    def test_crashes_happen_and_service_survives(self):
        system = CloudDefenseSystem(CloudConfig(boot_delay=1.0), seed=65)
        tracer = EventLog()
        system.ctx.attach_tracer(tracer)
        system.add_benign_clients(40)
        monkey = ChaosMonkey(system.ctx, crash_rate=0.2)
        monkey.start()
        report = system.run(duration=120.0)
        assert monkey.crashes > 5
        assert len(tracer.of_kind("replica_crashed")) == monkey.crashes
        # Availability dips but the healing loop keeps the service alive.
        assert report.benign_success_overall > 0.7
        assert len(system.ctx.active_replicas()) >= 1

    def test_stop(self):
        system = CloudDefenseSystem(seed=66)
        system.build()
        monkey = ChaosMonkey(system.ctx, crash_rate=5.0)
        monkey.start()
        system.ctx.sim.run_until(5.0)
        crashed = monkey.crashes
        monkey.stop()
        system.ctx.sim.run_until(20.0)
        assert monkey.crashes == crashed
