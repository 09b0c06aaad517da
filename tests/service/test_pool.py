"""Replica pool: spawn-order determinism and fresh-port substitution."""

from __future__ import annotations

import asyncio

from repro.service import ReplicaPool


def test_start_boots_configured_fleet(config):
    async def scenario():
        pool = ReplicaPool(config)
        booted = await pool.start()
        try:
            return (
                [b.replica_id for b in booted],
                [b.replica_id for b in pool.active()],
                len({b.port for b in booted}),
            )
        finally:
            await pool.stop()

    ids, active, distinct_ports = asyncio.run(scenario())
    assert ids == ["r-1", "r-2", "r-3"]
    assert active == ids  # spawn order, deterministic
    assert distinct_ports == 3  # every replica at its own port


def test_replica_ids_never_reused(config):
    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            await pool.retire("r-2")
            replacement = await pool.spawn()
            return replacement.replica_id, sorted(pool.retired)
        finally:
            await pool.stop()

    new_id, retired = asyncio.run(scenario())
    assert new_id == "r-4"  # monotonic counter, r-2 is gone for good
    assert retired == ["r-2"]


def test_substitute_moves_the_port(config):
    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            old = pool.get("r-1")
            old_port = old.port
            replacements = await pool.substitute(["r-1"])
            return (
                old_port,
                replacements[0].port,
                old.is_active,
                pool.n_active,
            )
        finally:
            await pool.stop()

    old_port, new_port, old_active, n_active = asyncio.run(scenario())
    assert new_port != old_port  # the moving-target dimension
    assert not old_active
    assert n_active == 3  # pool size is held at P


def test_retire_unknown_id_is_a_noop(config):
    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            await pool.retire("r-99")
            return pool.n_active
        finally:
            await pool.stop()

    assert asyncio.run(scenario()) == 3


def test_active_index_stays_coherent_under_churn(config):
    """``active()`` is served from an O(1) index, not a fleet scan; the
    index must track spawn/retire churn exactly (order included)."""

    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            await pool.retire("r-2")
            await pool.spawn()
            await pool.retire("r-1")
            expected = [
                b.replica_id
                for b in pool.backends.values()
                if b.is_active
            ]
            return [b.replica_id for b in pool.active()], expected
        finally:
            await pool.stop()

    indexed, scanned = asyncio.run(scenario())
    assert indexed == scanned == ["r-3", "r-4"]


def test_concurrent_retires_leave_no_ghosts(config):
    """Racing retires of the same replica must be idempotent: the lock
    serialises membership mutation so the counter moves once."""

    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            await asyncio.gather(*(pool.retire("r-1") for _ in range(4)))
            return pool.n_active, sorted(pool.retired)
        finally:
            await pool.stop()

    n_active, retired = asyncio.run(scenario())
    assert n_active == 2
    assert retired == ["r-1"]


def test_attacked_reports_saturated_backends_only(config):
    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            victim = pool.get("r-2")
            victim.admit("bot-0")
            for seq in range(20):
                victim._answer([f"REQ bot-0 {seq}"])
            return [b.replica_id for b in pool.attacked()]
        finally:
            await pool.stop()

    assert asyncio.run(scenario()) == ["r-2"]


def test_snapshot_covers_the_fleet(config):
    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            return pool.snapshot()
        finally:
            await pool.stop()

    rows = asyncio.run(scenario())
    assert [row["replica_id"] for row in rows] == ["r-1", "r-2", "r-3"]
    assert all(row["active"] for row in rows)
