"""Profile table: update arithmetic, seeded jitter, persistence."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.trust import ClientProfile, ProfileTable, TrustConfig, TrustTier


#: one profile row as ``json.dumps(to_row(...), sort_keys=True)`` wrote
#: it at commit cf01979 (the text the sqlite and file backends store).
PARENT_ROW = (
    '{"heal_tau": 31.327662433551534, "last_penalty": 0.1, '
    '"last_seen": 0.1, "rate_ema": 0.39602653386489395, '
    '"rate_var": 7.763693661772837, "requests": 3, "tier": 1, '
    '"tier_since": 0.1, "trust": 0.33851608762107943, "violations": 2}'
)


@pytest.fixture
def config() -> TrustConfig:
    return TrustConfig(seed=11)


def _reloaded(table: ProfileTable, config: TrustConfig) -> ProfileTable:
    """A fresh table rebuilt from ``table``'s persistence rows."""
    fresh = ProfileTable(config)
    for cid in table.client_ids:
        fresh.load_row(cid, table.to_row(cid))
    return fresh


def _render_row(row: dict) -> str:
    """A persistence row with nothing rounded away: floats as
    ``float.hex()``, every value tagged with its Python type."""
    return ";".join(
        "{}={}:{}".format(
            name,
            type(value).__name__,
            value.hex() if isinstance(value, float) else value,
        )
        for name, value in row.items()
    )


class TestSeededScheduleGolden:
    #: sha256 of the per-step ``(tier value, moved)`` stream plus every
    #: client's ``to_row()`` at the mid-stream reload and at the end,
    #: captured at commit cf01979 — when the table still kept numpy
    #: columns and a vectorized kernel served as the reference.
    GOLDEN = (
        "960c1e63c4a29990b81cb7d63df6a553ee1855d8ce9c67bfd83c7abc821338c3"
    )

    def test_seeded_schedule_leaves_the_golden_state(self):
        """25k observations over 40 clients must leave every stored
        value, tier decision and persisted row exactly as the parent
        implementation did — over a schedule that visits every branch:
        dt of zero, under ``rate_floor`` and of many seconds;
        violations in and out of ``penalty_cooldown``; demotion to
        DENIED and the dwell-gated climb back; a persistence round trip
        mid-stream."""
        config = TrustConfig(
            heal_tau=20.0, violation_rate=0.2, violation_penalty=0.5,
            seed=11,
        )
        rng = random.Random(20140623)
        clients = [f"c{i}" for i in range(40)]
        bots = set(clients[:12])
        table = ProfileTable(config)
        running = hashlib.sha256()

        def checkpoint() -> None:
            for cid in table.client_ids:
                running.update(
                    f"{cid}|{_render_row(table.to_row(cid))}\n".encode()
                )

        now = 0.0
        steps = 25_000
        seen = {
            "dt_zero": 0, "dt_tiny": 0, "dt_long": 0, "denied": 0,
            "recovered": 0, "in_cooldown": 0, "penalised": 0,
        }
        last_tier: dict[str, int] = {}
        for step in range(steps):
            if step == steps // 2:
                checkpoint()
                table = _reloaded(table, config)
            gap = rng.random()
            if gap < 0.15:
                seen["dt_zero"] += 1
            elif gap < 0.30:
                now += rng.uniform(1e-6, 0.9 * config.rate_floor)
                seen["dt_tiny"] += 1
            elif gap < 0.996:
                now += rng.uniform(0.001, 0.05)
            else:
                now += rng.uniform(2.0, 15.0)
                seen["dt_long"] += 1
            cid = rng.choice(clients)
            # Bots misbehave in bursts and then go quiet, so they sink
            # to DENIED and later heal back up the ladder.
            misbehaving = cid in bots and int(now / 40.0) % 2 == 0
            violated = rng.random() < (0.8 if misbehaving else 0.02)

            before = table.to_row(cid) if cid in table else None
            tier, moved = table.observe_raw(cid, now, violation=violated)
            after = table.to_row(cid)

            running.update(f"{tier}:{int(moved)}|".encode())
            assert table.tier_of(cid) is TrustTier(tier)
            previous = last_tier.get(cid)
            assert moved is (tier != previous), (step, cid)
            last_tier[cid] = tier
            if tier == TrustTier.DENIED:
                seen["denied"] += 1
            if previous == TrustTier.DENIED and tier > previous:
                seen["recovered"] += 1
            if before is not None and violated:
                if after["last_penalty"] != before["last_penalty"]:
                    seen["penalised"] += 1
                elif (
                    before["last_penalty"] is not None
                    and now - before["last_penalty"]
                    < config.penalty_cooldown
                ):
                    seen["in_cooldown"] += 1
        checkpoint()
        assert len(table) == len(clients) >= 30
        assert all(seen.values()), seen
        assert running.hexdigest() == self.GOLDEN


class TestDynamics:
    def test_quiet_client_heals_toward_one(self, config):
        table = ProfileTable(config)
        table.observe("benign", now=0.0)
        start = table.trust_of("benign")
        for step in range(1, 20):
            table.observe("benign", now=step * 10.0)
        assert table.trust_of("benign") > start
        assert table.trust_of("benign") > 0.95

    def test_bystander_violation_not_counted(self):
        """A slow client throttled on a flooded replica keeps its
        score: its own rate EMA never clears ``violation_rate``."""
        config = TrustConfig(violation_rate=20.0, seed=11)
        table = ProfileTable(config)
        table.observe("slow", now=0.0)
        before = table.trust_of("slow")
        tier = table.observe("slow", now=1.0, violation=True)  # 1 req/s
        assert table.trust_of("slow") >= before  # healed, not punished
        assert tier is TrustTier.WATCH
        assert table.profile("slow").violations == 1  # still recorded

    def test_fast_client_violation_is_counted(self):
        config = TrustConfig(
            violation_rate=0.0, penalty_cooldown=0.0, heal_tau=1e9,
            seed=11,
        )
        table = ProfileTable(config)
        table.observe("bot", now=0.0)
        before = table.trust_of("bot")
        table.observe("bot", now=0.1, violation=True)
        assert table.trust_of("bot") == pytest.approx(
            before * (1.0 - config.violation_penalty), rel=1e-6
        )

    def test_penalty_cooldown_limits_rate_of_punishment(self):
        config = TrustConfig(
            violation_rate=0.0, penalty_cooldown=10.0, heal_tau=1e9,
            seed=11,
        )
        table = ProfileTable(config)
        table.observe("bot", now=0.0)
        table.observe("bot", now=1.0, violation=True)   # counted
        after_first = table.trust_of("bot")
        table.observe("bot", now=2.0, violation=True)   # inside cooldown
        assert table.trust_of("bot") == pytest.approx(
            after_first, abs=1e-6
        )
        table.observe("bot", now=11.5, violation=True)  # cooldown over
        assert table.trust_of("bot") < after_first
        assert table.profile("bot").violations == 3

    def test_trust_stays_in_unit_interval(self):
        config = TrustConfig(
            violation_rate=0.0, penalty_cooldown=0.0,
            violation_penalty=0.99, seed=11,
        )
        table = ProfileTable(config)
        table.observe("bot", now=0.0)
        for step in range(1, 50):
            table.observe("bot", now=step * 0.1, violation=True)
        assert 0.0 <= table.trust_of("bot") <= 1.0


class TestJitter:
    def test_heal_jitter_is_deterministic_and_order_free(self, config):
        forward = ProfileTable(config)
        backward = ProfileTable(config)
        ids = ["alpha", "beta", "gamma"]
        for cid in ids:
            forward.ensure(cid, now=0.0)
        for cid in reversed(ids):
            backward.ensure(cid, now=0.0)
        for cid in ids:
            assert (
                forward.to_row(cid)["heal_tau"]
                == backward.to_row(cid)["heal_tau"]
            )

    def test_heal_jitter_varies_by_seed_and_client(self):
        one = ProfileTable(TrustConfig(seed=1))
        two = ProfileTable(TrustConfig(seed=2))
        for table in (one, two):
            table.ensure("alpha", now=0.0)
            table.ensure("beta", now=0.0)
        assert one.to_row("alpha")["heal_tau"] != two.to_row("alpha")[
            "heal_tau"
        ]
        assert one.to_row("alpha")["heal_tau"] != one.to_row("beta")[
            "heal_tau"
        ]

    def test_zero_jitter_uses_config_constant(self):
        table = ProfileTable(TrustConfig(heal_jitter=0.0, seed=11))
        table.ensure("c", now=0.0)
        assert table.to_row("c")["heal_tau"] == TrustConfig.heal_tau


class TestPersistenceRows:
    def test_row_roundtrip_restores_exact_state(self, config):
        source = ProfileTable(config)
        source.observe("bot", now=0.0)
        source.observe("bot", now=0.05, violation=True)
        source.observe("bot", now=0.10, violation=True)
        row = source.to_row("bot")

        target = ProfileTable(config)
        target.load_row("bot", row)
        assert target.profile("bot") == source.profile("bot")
        assert target.to_row("bot") == row

        # The same three observations under a config that counts both
        # violations, as the sqlite/file backends stored the row at
        # commit cf01979: it must restore to the row this tree computes
        # and serialize back to the same text.
        strict = TrustConfig(
            violation_rate=0.0, penalty_cooldown=0.0, seed=11
        )
        penalised = ProfileTable(strict)
        penalised.observe("bot", now=0.0)
        penalised.observe("bot", now=0.05, violation=True)
        penalised.observe("bot", now=0.10, violation=True)
        restored = ProfileTable(strict)
        restored.load_row("bot", json.loads(PARENT_ROW))
        assert restored.to_row("bot") == penalised.to_row("bot")
        assert (
            json.dumps(restored.to_row("bot"), sort_keys=True)
            == PARENT_ROW
        )

    def test_never_penalised_sentinel_survives_json(self, config):
        source = ProfileTable(config)
        source.observe("benign", now=3.0)
        row = source.to_row("benign")
        assert row["last_penalty"] is None  # -inf is not JSON

        target = ProfileTable(config)
        target.load_row("benign", row)
        assert target.to_row("benign")["last_penalty"] is None
        # The restored sentinel must still mean "cooldown never blocks".
        cols_penalty = target.to_row("benign")
        assert cols_penalty["violations"] == 0

    def test_profile_view_is_json_ready(self, config):
        table = ProfileTable(config)
        table.observe("c", now=1.0)
        view = table.profile("c")
        assert isinstance(view, ClientProfile)
        as_dict = view.to_dict()
        assert as_dict["client_id"] == "c"
        assert as_dict["tier"] == "WATCH"
        assert isinstance(as_dict["trust"], float)


def test_table_grows_past_initial_capacity(config):
    table = ProfileTable(config)
    for i in range(200):
        table.observe(f"c{i}", now=float(i))
    assert len(table) == 200
    assert table.client_ids[0] == "c0"
    assert table.client_ids[-1] == "c199"
    assert "c150" in table
    assert table.trust_of("c150") == pytest.approx(
        TrustConfig.initial_trust
    )


def test_config_validation_rejects_bad_floors():
    with pytest.raises(ValueError):
        TrustConfig(watch_floor=0.8, trusted_floor=0.7)
    with pytest.raises(ValueError):
        TrustConfig(violation_penalty=1.5)
    with pytest.raises(ValueError):
        TrustConfig(throttle_every=0)
    with pytest.raises(ValueError):
        TrustConfig(heal_jitter=1.0)
