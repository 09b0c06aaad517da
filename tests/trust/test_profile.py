"""Profile table: one vectorized kernel, seeded jitter, persistence."""

from __future__ import annotations

import math
import random

import pytest

from repro.trust import ClientProfile, ProfileTable, TrustConfig, TrustTier


@pytest.fixture
def config() -> TrustConfig:
    return TrustConfig(seed=11)


def _column_bytes(table: ProfileTable) -> dict[str, bytes]:
    n = len(table)
    return {
        name: column[:n].tobytes() for name, column in table._cols.items()
    }


def _reloaded(table: ProfileTable, config: TrustConfig) -> ProfileTable:
    """A fresh table rebuilt from ``table``'s persistence rows."""
    fresh = ProfileTable(config)
    for cid in table.client_ids:
        fresh.load_row(cid, table.to_row(cid))
    return fresh


class TestScalarBatchEquivalence:
    def test_scalar_equals_batch_bitwise(self):
        """The scalar path is the batch kernel's arithmetic rewritten
        as plain float code, so the two must agree to the last bit on
        every column — over a schedule that visits every branch: dt of
        zero, under ``rate_floor`` and of many seconds; violations in
        and out of ``penalty_cooldown``; demotion to DENIED and the
        dwell-gated climb back; a persistence round trip mid-stream."""
        config = TrustConfig(
            heal_tau=20.0, violation_rate=0.2, violation_penalty=0.5,
            seed=11,
        )
        rng = random.Random(20140623)
        clients = [f"c{i}" for i in range(40)]
        bots = set(clients[:12])
        scalar = ProfileTable(config)
        batch = ProfileTable(config)
        now = 0.0
        steps = 25_000
        seen = {
            "dt_zero": 0, "dt_tiny": 0, "dt_long": 0, "denied": 0,
            "recovered": 0, "in_cooldown": 0, "penalised": 0,
        }
        last_tier: dict[str, TrustTier] = {}
        for step in range(steps):
            if step == steps // 2:
                scalar = _reloaded(scalar, config)
                batch = _reloaded(batch, config)
                assert _column_bytes(scalar) == _column_bytes(batch)
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

            before = scalar.to_row(cid) if cid in scalar else None
            tier = scalar.observe(cid, now, violation=violated)
            moved = batch.observe_batch(now, [cid], [violated])
            after = scalar.to_row(cid)

            assert after == batch.to_row(cid), (step, cid)
            assert batch.tier_of(cid) is tier
            previous = last_tier.get(cid)
            assert moved.tolist() == (
                [] if tier is previous else [int(tier)]
            )
            last_tier[cid] = tier
            if tier is TrustTier.DENIED:
                seen["denied"] += 1
            if previous is TrustTier.DENIED and tier > previous:
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
        assert _column_bytes(scalar) == _column_bytes(batch)
        assert len(scalar) == len(clients) >= 30
        assert all(seen.values()), seen

    def test_batch_aggregates_duplicate_clients(self, config):
        table = ProfileTable(config)
        table.ensure("c", now=0.0)
        table.observe_batch(1.0, ["c", "c", "c"], [False, True, False])
        profile = table.profile("c")
        assert profile.requests == 3
        assert profile.violations == 1
        # dt=1, k=3: instantaneous rate 3 req/s folded once.
        alpha = -math.expm1(-1.0 / config.rate_tau)
        assert profile.rate_ema == pytest.approx(alpha * 3.0)

    def test_empty_batch_is_noop(self, config):
        table = ProfileTable(config)
        moved = table.observe_batch(1.0, [], [])
        assert moved.size == 0
        assert len(table) == 0


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
    for i in range(200):  # initial capacity is 64
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
