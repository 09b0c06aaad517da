"""TrustManager: admission decisions, aggregates, persistence."""

from __future__ import annotations

import pytest

from repro.obs.instruments import Instruments
from repro.trust import (
    PROFILE_NAMESPACE,
    TIER_NAMES,
    MemoryBackend,
    SqliteBackend,
    TrustConfig,
    TrustManager,
    TrustTier,
)
from repro.trust.config import INITIAL_TRUST


@pytest.fixture
def config() -> TrustConfig:
    return TrustConfig(seed=11)


def _pin(manager: TrustManager, client_id: str, tier: TrustTier,
         trust: float, requests: int = 0) -> None:
    """Force a client into a known ladder state via the persistence row."""
    manager.table.ensure(client_id, now=0.0)
    manager.table.load_row(client_id, {
        "trust": trust,
        "tier": int(tier),
        "tier_since": 0.0,
        "last_seen": 0.0,
        "requests": requests,
    })


class TestAdmitDecision:
    def test_unknown_client_passes(self, config):
        assert TrustManager(config).admit_decision("stranger") == "ok"

    def test_watch_and_trusted_pass(self, config):
        manager = TrustManager(config)
        _pin(manager, "w", TrustTier.WATCH, 0.6)
        _pin(manager, "t", TrustTier.TRUSTED, 0.9)
        assert manager.admit_decision("w") == "ok"
        assert manager.admit_decision("t") == "ok"

    def test_denied_client_is_refused(self, config):
        manager = TrustManager(config)
        _pin(manager, "bot", TrustTier.DENIED, 0.01)
        assert manager.admit_decision("bot") == "deny"

    def test_throttled_passes_one_in_throttle_every(self, config):
        """Deterministic in the client's own request count — request
        2k passes, request 2k+1 throttles (throttle_every=2)."""
        manager = TrustManager(config)
        _pin(manager, "shady", TrustTier.THROTTLED, 0.2, requests=0)
        assert manager.admit_decision("shady") == "ok"
        _pin(manager, "shady", TrustTier.THROTTLED, 0.2, requests=1)
        assert manager.admit_decision("shady") == "throttle"
        _pin(manager, "shady", TrustTier.THROTTLED, 0.2, requests=2)
        assert manager.admit_decision("shady") == "ok"


class TestAggregates:
    def test_low_trust_mass_mixes_known_and_unknown(self, config):
        manager = TrustManager(config)
        _pin(manager, "good", TrustTier.TRUSTED, 0.9)
        _pin(manager, "bad", TrustTier.DENIED, 0.1)
        mass = manager.low_trust_mass(["good", "bad", "stranger"])
        expected = (1 - 0.9) + (1 - 0.1) + (1 - INITIAL_TRUST)
        assert mass == pytest.approx(expected)

    def test_tier_counts_whole_table_and_subset(self, config):
        manager = TrustManager(config)
        _pin(manager, "a", TrustTier.TRUSTED, 0.9)
        _pin(manager, "b", TrustTier.THROTTLED, 0.2)
        _pin(manager, "c", TrustTier.THROTTLED, 0.3)
        whole = manager.tier_counts()
        assert tuple(whole) == TIER_NAMES  # stable render order
        assert whole == {
            "TRUSTED": 1, "WATCH": 0, "THROTTLED": 2, "DENIED": 0,
        }
        # Subsets may include never-seen clients: they count under the
        # initial score's tier (WATCH at the default 0.6).
        subset = manager.tier_counts(["a", "stranger"])
        assert subset == {
            "TRUSTED": 1, "WATCH": 1, "THROTTLED": 0, "DENIED": 0,
        }

    def test_mean_trust(self, config):
        manager = TrustManager(config)
        assert manager.mean_trust() == 1.0  # empty table
        _pin(manager, "a", TrustTier.TRUSTED, 0.8)
        _pin(manager, "b", TrustTier.DENIED, 0.2)
        assert manager.mean_trust() == pytest.approx(0.5)
        assert manager.mean_trust(["a", "stranger"]) == pytest.approx(
            (0.8 + INITIAL_TRUST) / 2
        )

    def test_snapshot_shape(self, config):
        manager = TrustManager(config)
        manager.observe("a", now=1.0)
        snapshot = manager.snapshot()
        assert snapshot["population"] == 1
        assert snapshot["tiers"]["WATCH"] == 1
        assert 0.0 <= snapshot["mean_trust"] <= 1.0


class TestPersistence:
    def test_dirty_persist_restore_cycle(self, config):
        storage = MemoryBackend()
        manager = TrustManager(config, storage=storage)
        assert manager.dirty is False
        manager.observe("a", now=0.0)
        manager.observe("a", now=1.0, violation=True)
        manager.observe("b", now=1.0)
        assert manager.dirty is True
        assert manager.persist() == 2
        assert manager.dirty is False
        assert manager.persist() == 0  # nothing new

        reborn = TrustManager(config, storage=storage)
        assert reborn.restore() == 2
        for cid in ("a", "b"):
            assert reborn.profile(cid) == manager.profile(cid)

    def test_persist_without_storage_is_noop(self, config):
        manager = TrustManager(config)
        manager.observe("a", now=0.0)
        assert manager.persist() == 0
        assert manager.restore() == 0

    def test_restore_survives_sqlite_reopen(self, config, tmp_path):
        path = str(tmp_path / "trust.db")
        first = TrustManager(config, storage=SqliteBackend(path))
        first.observe("bot", now=0.0)
        first.observe("bot", now=0.5, violation=True)
        first.persist()
        first.storage.close()

        second = TrustManager(config, storage=SqliteBackend(path))
        assert second.restore() == 1
        assert second.profile("bot") == first.profile("bot")
        second.storage.close()

    def test_rows_land_in_profile_namespace(self, config):
        storage = MemoryBackend()
        manager = TrustManager(config, storage=storage)
        manager.observe("a", now=0.0)
        manager.persist()
        keys = [key for key, _ in storage.items(PROFILE_NAMESPACE)]
        assert keys == ["a"]


def test_transition_counter_lands_in_registry(config):
    instruments = Instruments.create(source="test")
    manager = TrustManager(config, instruments=instruments)
    manager.observe("bot", now=0.0)  # first sight: transition unseen->WATCH
    counter = instruments.registry.get("trust_tier_transitions_total")
    assert counter is not None
    baseline = counter.value(tier="DENIED")
    # Crush the score: WATCH -> DENIED in one counted violation.
    strict = TrustConfig(
        violation_rate=0.0, penalty_cooldown=0.0,
        violation_penalty=0.9, seed=11,
    )
    harsh = TrustManager(strict, instruments=instruments)
    harsh.observe("bot", now=0.0)
    assert harsh.observe("bot", now=0.5, violation=True) is TrustTier.DENIED
    assert counter.value(tier="DENIED") == baseline + 1
