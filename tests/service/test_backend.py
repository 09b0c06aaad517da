"""Replica backend: protocol logic and live socket behaviour."""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.service import ReplicaBackend


def _backend(config, clock) -> ReplicaBackend:
    return ReplicaBackend(config, "r-1", clock=clock)


class TestRespond:
    """The pure request->reply logic, no sockets involved."""

    def test_malformed_request(self, config, clock):
        backend = _backend(config, clock)
        assert backend._respond(["GARBAGE"]) == "ERR malformed"
        assert backend._respond([]) == "ERR malformed"

    def test_unknown_client_denied(self, config, clock):
        backend = _backend(config, clock)
        assert backend._respond(["REQ", "u-1", "7"]) == "DENY 7"
        assert backend.stats.denied == 1

    def test_deny_does_not_feed_the_attack_signal(self, config, clock):
        # A non-whitelisted flood must not be able to saturate a replica:
        # detection counts only whitelisted traffic against the bucket.
        backend = _backend(config, clock)
        for seq in range(100):
            backend._respond(["REQ", "bot-X", str(seq)])
        assert backend.monitor.counts() == (0, 0)
        assert not backend.attacked()

    def test_whitelisted_client_served_then_throttled(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("u-1")
        replies = [
            backend._respond(["REQ", "u-1", str(seq)]) for seq in range(6)
        ]
        # bucket_burst=5 in the test config: five OKs, then throttled.
        assert replies[:5] == [f"OK {i} r-1" for i in range(5)]
        assert replies[5] == "THROTTLED 5"
        assert backend.stats.served == 5
        assert backend.stats.throttled == 1

    def test_sustained_throttling_raises_attacked(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("bot-0")
        for seq in range(20):
            backend._respond(["REQ", "bot-0", str(seq)])
        assert backend.attacked()

    def test_quiescing_moves_everyone(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("u-1")
        backend.quiesce()
        assert backend._respond(["REQ", "u-1", "1"]) == "MOVED 1"
        assert backend.stats.moved == 1

    def test_evict_revokes_admission(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("u-1")
        backend.evict("u-1")
        assert backend._respond(["REQ", "u-1", "1"]) == "DENY 1"
        assert backend.n_clients == 0


class TestSketchKey:
    """The whitelist entry *is* the client's sketch key: made by the
    backend's own monitor at admission, gone with the entry."""

    @pytest.fixture
    def sketch_config(self, config):
        return dataclasses.replace(config, detector="sketch")

    def test_admit_stores_the_monitors_positions(self, sketch_config, clock):
        backend = _backend(sketch_config, clock)
        backend.admit("u-1")
        assert backend.whitelist["u-1"] == backend.monitor.positions("u-1")
        assert backend.n_clients == 1
        backend.evict("u-1")
        assert backend.whitelist == {}
        assert backend.n_clients == 0

    def test_moved_client_is_keyed_by_its_new_backend(
        self, sketch_config, clock
    ):
        # Positions index one (width, depth, seed) family only; a
        # differently sized destination must hash the client again.
        source = _backend(sketch_config, clock)
        wide = ReplicaBackend(
            dataclasses.replace(sketch_config, sketch_epsilon=0.001),
            "r-2", clock=clock,
        )
        source.admit("u-1")
        source.evict("u-1")
        wide.admit("u-1")
        assert wide.whitelist["u-1"] == wide.monitor.positions("u-1")
        assert wide.whitelist["u-1"] != source.monitor.positions("u-1")
        assert wide._respond(["REQ", "u-1", "1"]) == "OK 1 r-2"
        assert wide.monitor.counts() == (1, 0)
        assert source._respond(["REQ", "u-1", "2"]) == "DENY 2"

    def test_held_positions_attribute_like_hashing(
        self, sketch_config, clock
    ):
        backend = _backend(sketch_config, clock)
        backend.admit("bot-0")
        backend.admit("u-1")
        backend._respond(["REQ", "u-1", "0"])
        for seq in range(1, 40):
            backend._respond(["REQ", "bot-0", str(seq)])
        top = backend.monitor.heavy_hitters()
        assert (top[0].key, top[0].count) == ("bot-0", 39)
        assert backend.monitor.counts() == (40, 35)

    def test_exact_detector_stores_none_and_serves_identically(
        self, config, sketch_config, clock
    ):
        exact = _backend(config, clock)
        sketch = _backend(sketch_config, clock)
        requests = [("u-1", i) for i in range(8)] + [("stranger", 8)]
        replies = []
        for backend in (exact, sketch):
            backend.admit("u-1")
            replies.append([
                backend._respond(["REQ", cid, str(seq)])
                for cid, seq in requests
            ])
            assert backend.stats.to_dict() == {
                "served": 5, "throttled": 3, "denied": 1, "moved": 0,
            }
            assert backend.monitor.counts() == (8, 3)
        assert replies[0] == replies[1]
        assert exact.whitelist == {"u-1": None}
        assert exact.monitor.positions("u-1") is None


class TestLiveSocket:
    def test_serves_over_tcp_and_goes_dark_on_stop(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            await backend.start()
            host, port = backend.address
            assert port != 0  # OS-assigned ephemeral port

            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"REQ u-1 1\n")
            await writer.drain()
            denied = await reader.readline()
            backend.admit("u-1")
            writer.write(b"REQ u-1 2\n")
            await writer.drain()
            served = await reader.readline()
            writer.close()

            await backend.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return denied, served

        denied, served = asyncio.run(scenario())
        assert denied == b"DENY 1\n"
        assert served == b"OK 2 r-9\n"

    def test_stop_closes_established_connections(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            await backend.start()
            reader, _writer = await asyncio.open_connection(*backend.address)
            await backend.stop()
            return await reader.readline()

        assert asyncio.run(scenario()) == b""  # EOF, not a hang

    def test_double_start_rejected(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            await backend.start()
            try:
                with pytest.raises(RuntimeError):
                    await backend.start()
            finally:
                await backend.stop()

        asyncio.run(scenario())

    def test_address_requires_start(self, config, clock):
        backend = _backend(config, clock)
        with pytest.raises(RuntimeError):
            backend.address
