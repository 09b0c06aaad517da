"""Replica pool: id-order determinism, all-or-nothing batch boot and
fresh-port substitution."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import ReplicaBackend, ReplicaPool


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
            (replacement,) = await pool.spawn()
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


def test_batch_boot_takes_consecutive_ids_in_id_order(config, monkeypatch):
    """A batch's listeners start concurrently, but it joins the active
    set in id order whichever listener came up first."""
    original = ReplicaBackend.start

    async def first_is_slowest(self, port=0):
        if self.replica_id == "r-4":
            await asyncio.sleep(0.05)
        await original(self, port)

    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            monkeypatch.setattr(ReplicaBackend, "start", first_is_slowest)
            batch = await pool.spawn(4)
            empty = await pool.spawn(0)
            return (
                [b.replica_id for b in batch],
                [b.replica_id for b in pool.active()],
                empty,
                (await pool.spawn())[0].replica_id,
            )
        finally:
            await pool.stop()

    batch, active, empty, after = asyncio.run(scenario())
    assert batch == ["r-4", "r-5", "r-6", "r-7"]
    assert active == [f"r-{i}" for i in range(1, 8)]
    assert empty == []
    assert after == "r-8"


def test_substitute_boots_one_batch_before_retiring(config, monkeypatch):
    events = []
    spawn, retire = ReplicaPool.spawn, ReplicaPool.retire

    async def logged_spawn(self, count=1):
        events.append(("spawn", count, self.n_active))
        return await spawn(self, count)

    async def logged_retire(self, replica_id):
        events.append(("retire", replica_id, self.n_active))
        await retire(self, replica_id)

    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        monkeypatch.setattr(ReplicaPool, "spawn", logged_spawn)
        monkeypatch.setattr(ReplicaPool, "retire", logged_retire)
        try:
            replacements = await pool.substitute(["r-1", "r-3"])
            return [b.replica_id for b in replacements]
        finally:
            monkeypatch.undo()
            await pool.stop()

    assert asyncio.run(scenario()) == ["r-4", "r-5"]
    # One boot call for the batch, and the pool held 3 + 2 live
    # replicas before the first old one closed.
    assert events == [
        ("spawn", 2, 3),
        ("retire", "r-1", 5),
        ("retire", "r-3", 4),
    ]


@pytest.mark.parametrize("failing", [0, 1, 3])
def test_failed_listener_leaves_nothing_from_its_batch(
    config, monkeypatch, failing
):
    """All-or-nothing: the j-th listener of a batch fails to bind, so
    every listener the batch opened closes, none of it registers, and
    its ids stay spent."""
    original = ReplicaBackend.start
    attempted = []

    async def failing_start(self, port=0):
        attempted.append(self)
        if len(attempted) == failing + 1:
            raise OSError("injected bind failure")
        await original(self, port)

    async def refused(port):
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            return True
        writer.close()
        return False

    async def scenario():
        pool = ReplicaPool(config)
        await pool.start()
        try:
            monkeypatch.setattr(ReplicaBackend, "start", failing_start)
            with pytest.raises(OSError, match="injected"):
                await pool.spawn(4)
            monkeypatch.undo()
            opened = [b.port for b in attempted if b.port is not None]
            closed = [await refused(port) for port in opened]
            return (
                len(attempted),
                len(opened),
                closed,
                [b._server for b in attempted],
                sorted(pool.backends),
                [b.replica_id for b in pool.active()],
                (await pool.spawn())[0].replica_id,
            )
        finally:
            await pool.stop()

    n_tried, n_opened, closed, servers, known, active, after = asyncio.run(
        scenario()
    )
    assert n_tried == 4 and n_opened == 3
    assert all(closed)
    assert servers == [None] * 4
    assert known == ["r-1", "r-2", "r-3"]
    assert active == ["r-1", "r-2", "r-3"]
    assert after == "r-8"  # r-4..r-7 stay spent
