"""The trust ladder mirrored into the simulated cloud.

Same :class:`repro.trust.TrustManager` as the live service, clocked by
sim-time: replicas consult the tier gate between whitelist and load
accounting, shuffle rounds trace a per-cohort tier census, and the run
report carries the final tier table.
"""

from __future__ import annotations

import pytest

from repro.cloudsim.system import CloudConfig, CloudDefenseSystem
from repro.obs import EventLog, Instruments
from repro.trust import TIER_NAMES


def run_system(
    seed: int, trust_enabled: bool, tracer: EventLog | None = None
):
    system = CloudDefenseSystem(
        CloudConfig(trust_enabled=trust_enabled), seed=seed
    )
    if tracer is not None:
        system.ctx.attach_instruments(Instruments(events=tracer))
    system.add_benign_clients(30)
    system.add_persistent_bots(5)
    return system, system.run(duration=60.0)


class TestDisabledDefault:
    def test_no_trust_state_and_none_in_report(self):
        system, report = run_system(seed=5, trust_enabled=False)
        assert system.ctx.trust is None
        assert report.trust_tiers is None


class TestEnabled:
    def test_population_lands_in_tier_table(self):
        system, report = run_system(seed=5, trust_enabled=True)
        assert system.ctx.trust is not None
        assert report.trust_tiers is not None
        assert tuple(report.trust_tiers) == TIER_NAMES
        # Every client that issued a request has a profile; the census
        # covers the whole profiled population.
        assert sum(report.trust_tiers.values()) == len(system.ctx.trust)
        assert sum(report.trust_tiers.values()) >= 30

    def test_replicas_share_the_context_manager(self):
        system, _ = run_system(seed=5, trust_enabled=True)
        for replica in system.ctx.all_replicas():
            assert replica.ctx.trust is system.ctx.trust

    def test_shuffles_trace_a_cohort_census(self):
        tracer = EventLog(source="cloudsim")
        _, report = run_system(seed=5, trust_enabled=True, tracer=tracer)
        assert report.shuffles > 0
        snapshots = list(tracer.of_kind("trust_snapshot"))
        assert snapshots, "attacked cohorts should be traced"
        for event in snapshots:
            assert event.data["clients"] == sum(
                event.data["tiers"].values()
            )
            assert 0.0 <= event.data["mean_trust"] <= 1.0

    def test_same_seed_same_run_with_trust(self):
        def fingerprint(seed: int):
            system, report = run_system(seed, trust_enabled=True)
            return (
                report.shuffles,
                report.benign_success_overall,
                report.trust_tiers,
                system.ctx.sim.events_processed,
            )

        assert fingerprint(41) == fingerprint(41)

    def test_gated_requests_are_counted_separately(self):
        """The gate statistic exists on every replica even when the
        default tunables never demote anyone (cloudsim's paced bots
        stay under the violation rate)."""
        system, _ = run_system(seed=5, trust_enabled=True)
        for replica in system.ctx.all_replicas():
            assert replica.stats.requests_gated >= 0


def test_trust_flag_validates_like_any_cloud_config_field():
    config = CloudConfig(trust_enabled=True)
    assert config.trust_enabled is True
    with pytest.raises(TypeError):
        CloudConfig(trust_enabled=True, not_a_field=1)
