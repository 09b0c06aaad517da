"""Trust-layer wiring into the live service: gate, coordinator, harness.

The backend's tier gate sits between the whitelist and the token
bucket: policy rejections must spend no bucket tokens but still feed
the saturation monitor (the flood stays the detection signal).  The
coordinator only grows a trust manager when ``trust_enabled`` is set,
so the default path stays byte-identical to the pre-trust service.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.obs import DISABLED, Instruments
from repro.service.backend import ReplicaBackend
from repro.service.coordinator import ServiceCoordinator
from repro.trust import TrustConfig, TrustManager, TrustTier


def _pin_tier(trust: TrustManager, client_id: str, tier: TrustTier,
              score: float, requests: int = 0) -> None:
    trust.table.ensure(client_id, now=0.0)
    trust.table.load_row(client_id, {
        "trust": score,
        "tier": int(tier),
        "tier_since": 0.0,
        "last_seen": 0.0,
        "requests": requests,
    })


@pytest.fixture
def trust(clock) -> TrustManager:
    return TrustManager(TrustConfig(seed=7))


@pytest.fixture
def backend(config, clock, trust) -> ReplicaBackend:
    replica = ReplicaBackend(
        config, "r-0", clock=clock, trust=trust
    )
    replica.admit("good")
    replica.admit("shady")
    replica.admit("bot")
    return replica


class TestTierGate:
    def test_denied_tier_gets_deny_without_spending_tokens(
        self, backend, trust
    ):
        _pin_tier(trust, "bot", TrustTier.DENIED, 0.05)
        tokens_before = backend.bucket.tokens
        assert backend._answer(["REQ bot 1"]) == ["DENY 1"]
        assert backend.bucket.tokens == tokens_before
        assert backend.stats.denied == 1

    def test_gated_requests_feed_the_saturation_monitor(
        self, backend, trust, clock
    ):
        """A policy-starved bot must keep looking like an attack so
        the shuffle loop can corner it."""
        _pin_tier(trust, "bot", TrustTier.DENIED, 0.05)
        for seq in range(8):
            backend._answer([f"REQ bot {seq}"])
            clock.advance(0.05)
        total, throttled = backend.monitor.counts()
        assert total == 8
        assert throttled == 8
        assert backend.attacked()

    def test_throttled_tier_passes_one_in_throttle_every(
        self, backend, trust, clock
    ):
        """Deterministic 1-in-N pass-through keyed on the client's own
        request count: request parity decides, not randomness."""
        verdicts = []
        for seq in range(6):
            _pin_tier(
                trust, "shady", TrustTier.THROTTLED, 0.2, requests=seq
            )
            verdicts.append(
                backend._answer([f"REQ shady {seq}"])[0].split()[0]
            )
            clock.advance(0.1)
        assert verdicts == [
            "OK", "THROTTLED", "OK", "THROTTLED", "OK", "THROTTLED",
        ]

    def test_gate_sits_behind_the_whitelist(self, backend, trust):
        # Not-whitelisted wins over tier: the coordinator never
        # assigned this client here, trust does not resurrect it.
        _pin_tier(trust, "outsider", TrustTier.TRUSTED, 0.95)
        assert backend._answer(["REQ outsider 1"]) == ["DENY 1"]

    def test_watch_tier_reaches_the_bucket(self, backend, trust):
        assert backend._answer(["REQ good 1"]) == ["OK 1 r-0"]
        assert trust.table.requests_of("good") == 1

    def test_bucket_throttle_is_a_violation_signal(
        self, backend, trust, clock
    ):
        """Capacity exhaustion (not the tier gate) is what marks a
        violation in the profile."""
        backend.bucket._tokens = 0.0  # drain the bucket directly
        backend._answer(["REQ good 1"])
        assert trust.profile("good").violations == 1

    def test_snapshot_includes_tier_table(self, backend, trust):
        _pin_tier(trust, "bot", TrustTier.DENIED, 0.05)
        snap = backend.snapshot()
        assert snap["trust_tiers"]["DENIED"] == 1
        # good + shady are unknown to the table -> initial tier (WATCH)
        assert snap["trust_tiers"]["WATCH"] == 2

    def test_no_trust_manager_means_no_gate(self, config, clock):
        replica = ReplicaBackend(config, "r-0", clock=clock)
        replica.admit("anyone")
        assert replica._answer(["REQ anyone 1"]) == ["OK 1 r-0"]
        assert "trust_tiers" not in replica.snapshot()


class TestCoordinatorWiring:
    def test_disabled_config_builds_no_trust_state(self, config):
        coordinator = ServiceCoordinator(config)
        assert coordinator.trust is None
        snap = coordinator.snapshot()
        assert snap["trust"] is None
        assert snap["state_backend"] == "memory"
        assert snap["restored"] is False

    def test_enabled_config_shares_one_manager_with_the_pool(
        self, config
    ):
        enabled = dataclasses.replace(config, trust_enabled=True)

        async def scenario():
            coordinator = ServiceCoordinator(enabled)
            await coordinator.start()
            try:
                assert coordinator.trust is not None
                backends = list(coordinator.pool.backends.values())
                assert backends, "pool should have started replicas"
                for replica in backends:
                    assert replica.trust is coordinator.trust
                snap = coordinator.snapshot()
                assert snap["trust"]["population"] == 0
                assert snap["trust"]["mean_trust"] == 1.0
            finally:
                await coordinator.stop()

        asyncio.run(scenario())


class TestCollectReports:
    """A confirmed round's trust views (each attacked cohort's
    ``trust_snapshot`` event, the tier gauge over every assigned
    client) are built only for a bundle that keeps them."""

    @staticmethod
    def _collect(config, instruments, monkeypatch):
        calls: list[str] = []

        async def scenario():
            coordinator = ServiceCoordinator(
                dataclasses.replace(config, trust_enabled=True),
                clock=lambda: 4.0,
                instruments=instruments,
            )
            await coordinator.start()
            try:
                trust = coordinator.trust
                for index in range(9):
                    coordinator.assign(f"c-{index}")
                _pin_tier(trust, "c-0", TrustTier.DENIED, 0.05, 3)
                _pin_tier(trust, "c-4", TrustTier.WATCH, 0.5, 2)
                _pin_tier(trust, "c-5", TrustTier.TRUSTED, 0.95, 7)
                for name in ("tier_counts", "mean_trust"):
                    def spy(*args, real=getattr(trust, name), name=name):
                        calls.append(name)
                        return real(*args)

                    monkeypatch.setattr(trust, name, spy)
                attacked = sorted(coordinator.pool.backends)[:2]
                coordinator._collect_reports(set(attacked))
                return attacked, dict(coordinator.assignments)
            finally:
                await coordinator.stop()

        attacked, assignments = asyncio.run(scenario())
        return calls, attacked, assignments

    def test_disabled_bundle_builds_no_trust_view(self, config, monkeypatch):
        calls, _, _ = self._collect(config, None, monkeypatch)
        assert calls == []
        assert len(DISABLED.events) == 0

    def test_recording_bundle_gets_the_same_views(self, config, monkeypatch):
        instruments = Instruments.create(clock=lambda: 0.0)
        calls, attacked, assignments = self._collect(
            config, instruments, monkeypatch
        )
        assert calls == ["tier_counts", "mean_trust"] * 2 + ["tier_counts"]
        # Three replicas take nine clients least-loaded first: c-0, c-3,
        # c-6 on the first, c-1, c-4, c-7 on the second; an unpinned
        # client holds the initial trust, 0.6, in the WATCH tier.
        assert [
            sorted(c for c, r in assignments.items() if r == replica)
            for replica in attacked
        ] == [["c-0", "c-3", "c-6"], ["c-1", "c-4", "c-7"]]
        snapshots = [
            (event.time, event.source, event.data)
            for event in instruments.events.of_kind("trust_snapshot")
        ]
        assert snapshots == [
            (4.0, "service", {
                "replica": attacked[0], "clients": 3,
                "tiers": {"TRUSTED": 0, "WATCH": 2, "THROTTLED": 0,
                          "DENIED": 1},
                "mean_trust": pytest.approx((0.05 + 0.6 + 0.6) / 3),
            }),
            (4.0, "service", {
                "replica": attacked[1], "clients": 3,
                "tiers": {"TRUSTED": 0, "WATCH": 3, "THROTTLED": 0,
                          "DENIED": 0},
                "mean_trust": pytest.approx((0.6 + 0.5 + 0.6) / 3),
            }),
        ]
        gauge = instruments.registry.gauge(
            "service_trust_tier_clients", "", ("tier",)
        )
        assert {
            tier: gauge.value(tier=tier)
            for tier in ("TRUSTED", "WATCH", "THROTTLED", "DENIED")
        } == {"TRUSTED": 1.0, "WATCH": 7.0, "THROTTLED": 0.0, "DENIED": 1.0}
