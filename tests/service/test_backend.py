"""Replica backend: protocol logic and live socket behaviour."""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ReplicaBackend, ReplicaPool
from repro.service.backend import _Connection
from repro.trust import TrustConfig, TrustManager, TrustTier


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


@contextlib.asynccontextmanager
async def _session(backend: ReplicaBackend):
    """Serve ``backend`` and hold one client connection to it."""
    await backend.start()
    try:
        reader, writer = await asyncio.open_connection(*backend.address)
        try:
            yield reader, writer
        finally:
            writer.close()
    finally:
        await backend.stop()


async def _replies(reader: asyncio.StreamReader, n: int) -> list[bytes]:
    return [
        await asyncio.wait_for(reader.readline(), 2.0) for _ in range(n)
    ]


class TestFraming:
    """Requests are lines, however TCP happens to cut the byte stream."""

    def test_request_split_across_two_segments_gets_one_reply(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            async with _session(backend) as (reader, writer):
                writer.write(b"REQ u-1")
                await asyncio.sleep(0.05)
                assert backend.stats.denied == 0  # nothing answered yet
                writer.write(b" 7\n")
                first = await _replies(reader, 1)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.readline(), 0.05)
                return first, backend.stats.to_dict()

        first, stats = asyncio.run(scenario())
        assert first == [b"DENY 7\n"]
        assert stats == {"served": 0, "throttled": 0, "denied": 1, "moved": 0}

    def test_thousand_lines_in_one_segment_answered_in_order(
        self, config, clock
    ):
        async def scenario():
            backend = ReplicaBackend(config, "r-9", clock=clock)
            backend.admit("u-1")
            async with _session(backend) as (reader, writer):
                writer.write(
                    b"".join(b"REQ u-1 %d\n" % seq for seq in range(1000))
                )
                replies = await _replies(reader, 1000)
                return replies, backend.stats.to_dict()

        replies, stats = asyncio.run(scenario())
        # Frozen clock, bucket_burst=5: five OKs, then the bucket is dry.
        assert replies == [
            b"OK %d r-9\n" % seq if seq < 5 else b"THROTTLED %d\n" % seq
            for seq in range(1000)
        ]
        assert stats == {
            "served": 5, "throttled": 995, "denied": 0, "moved": 0,
        }

    def test_crlf_blank_and_malformed_lines(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            async with _session(backend) as (reader, writer):
                writer.write(b"REQ u-1 1\r\n\nGARBAGE\nREQ u-1\nREQ u-1 2\n")
                replies = await _replies(reader, 5)
                return replies

        assert asyncio.run(scenario()) == [
            b"DENY 1\n",
            b"ERR malformed\n",
            b"ERR malformed\n",
            b"ERR malformed\n",
            b"DENY 2\n",
        ]

    def test_unterminated_last_line_is_answered_at_eof(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            async with _session(backend) as (reader, writer):
                writer.write(b"REQ u-1 1\nREQ u-1 2")
                writer.write_eof()
                rest = await asyncio.wait_for(reader.read(), 2.0)
                return rest

        assert asyncio.run(scenario()) == b"DENY 1\nDENY 2\n"

    @pytest.mark.parametrize(
        "revoke, verdict",
        [(ReplicaBackend.quiesce, b"MOVED"), (
            lambda backend: backend.evict("u-1"), b"DENY",
        )],
        ids=["quiesce", "evict"],
    )
    def test_revocation_between_two_segments_turns_the_rest(
        self, config, clock, revoke, verdict
    ):
        async def scenario():
            backend = ReplicaBackend(config, "r-9", clock=clock)
            backend.admit("u-1")
            async with _session(backend) as (reader, writer):
                writer.write(b"REQ u-1 0\nREQ u-1 1\nREQ u-")
                before = await _replies(reader, 2)
                revoke(backend)
                writer.write(b"1 2\nREQ u-1 3\n")
                after = await _replies(reader, 2)
                return before, after

        before, after = asyncio.run(scenario())
        assert before == [b"OK 0 r-9\n", b"OK 1 r-9\n"]
        assert after == [verdict + b" 2\n", verdict + b" 3\n"]


class _Wire(asyncio.Transport):
    """In-memory transport: collects what the protocol writes."""

    def __init__(self) -> None:
        super().__init__()
        self.sent = bytearray()
        self.aborted = False

    def write(self, data: bytes) -> None:
        self.sent += data

    def abort(self) -> None:
        self.aborted = True


_QUIESCE_AFTER = 70
_STREAM = [
    b"REQ %s %d\n" % (client, seq)
    for seq, client in enumerate(
        [b"good", b"bot", b"stranger", b"shady", b"good", b"denied"] * 20
    )
]
_STREAM[13] = b"\n"
_STREAM[29] = b"GARBAGE\r\n"
_STREAM[31] = b"REQ good\n"
_STREAM[47] = b"REQ caf\xc3\xa9 \xff\xfe\n"  # unknown id, undecodable seq


def _guarded_backend(config) -> ReplicaBackend:
    """Sketch detector + trust gate: every verdict `_respond` can give."""
    trust = TrustManager(TrustConfig(seed=7))
    backend = ReplicaBackend(
        dataclasses.replace(config, detector="sketch"),
        "r-0", clock=lambda: 0.0, trust=trust,
    )
    for client, tier, score in [
        ("good", None, 0.0),
        ("bot", None, 0.0),
        ("shady", TrustTier.THROTTLED, 0.3),
        ("denied", TrustTier.DENIED, 0.05),
    ]:
        backend.admit(client)
        if tier is not None:
            trust.table.ensure(client, now=0.0)
            trust.table.load_row(client, {
                "trust": score, "tier": int(tier), "tier_since": 0.0,
                "last_seen": 0.0, "requests": 0,
            })
    return backend


def _observable_state(backend: ReplicaBackend) -> tuple:
    return (
        backend.stats.to_dict(),
        backend.monitor.counts(),
        [
            (cell.epoch, cell.total, cell.throttled,
             cell.sketch.to_bytes(), cell.hitters.to_bytes())
            for cell in backend.monitor._window._cells
        ],
    )


class TestSameVerdicts:
    """One recorded byte stream, any segmentation: the protocol answers
    exactly what `_respond` answers line by line."""

    @settings(
        max_examples=60,
        deadline=None,
        # `config` is a frozen dataclass: sharing it across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cuts=st.lists(
            st.integers(0, sum(map(len, _STREAM))), max_size=40
        )
    )
    def test_any_segmentation_matches_line_by_line(self, config, cuts):
        reference = _guarded_backend(config)
        expected = bytearray()
        for number, line in enumerate(_STREAM):
            if number == _QUIESCE_AFTER:
                reference.quiesce()
            expected += reference._respond(
                line.decode("utf-8", "replace").split()
            ).encode("utf-8") + b"\n"
        assert {bytes(r).split()[0] for r in expected.splitlines()} == {
            b"OK", b"THROTTLED", b"DENY", b"MOVED", b"ERR",
        }

        backend = _guarded_backend(config)
        wire = _Wire()
        connection = _Connection(backend)
        backend._server = object()  # "started": connections are kept
        connection.connection_made(wire)
        stream = b"".join(_STREAM)
        quiesce_at = sum(map(len, _STREAM[:_QUIESCE_AFTER]))
        edges = sorted({0, quiesce_at, len(stream), *cuts})
        for start, end in zip(edges, edges[1:]):
            if start == quiesce_at:
                backend.quiesce()
            connection.data_received(stream[start:end])
        assert bytes(wire.sent) == bytes(expected)
        assert _observable_state(backend) == _observable_state(reference)


class TestBackpressure:
    def test_a_peer_that_does_not_read_stops_being_read(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            backend.admit("u-1")
            async with _session(backend) as (reader, writer):
                offered = 0
                while True:  # pipeline until our own drain() blocks
                    writer.write(b"".join(
                        b"REQ u-1 %0200d\n" % seq
                        for seq in range(offered, offered + 100)
                    ))
                    offered += 100
                    try:
                        await asyncio.wait_for(writer.drain(), 0.25)
                    except asyncio.TimeoutError:
                        break
                answered = backend.stats.served + backend.stats.throttled
                await asyncio.sleep(0.2)
                stalled = (
                    backend.stats.served + backend.stats.throttled
                    == answered < offered
                    and writer.transport.get_write_buffer_size() > 0
                )
                held = max(
                    t.get_write_buffer_size() for t in backend._connections
                )
                seqs = [
                    int(line.split()[1])
                    for line in await _replies(reader, offered)
                ]
                return stalled, held, seqs == list(range(offered))

        stalled, held, in_order = asyncio.run(scenario())
        assert stalled  # the server stopped reading, the client is stuck
        assert 0 < held < 256 * 1024  # replies held, but boundedly
        assert in_order  # and every request is answered once we read

    def test_endless_line_is_cut_off_and_others_keep_being_served(
        self, config
    ):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            async with _session(backend) as (reader, writer):
                writer.write(b"x" * 200_000)
                try:
                    rest = await asyncio.wait_for(reader.read(), 2.0)
                except ConnectionResetError:
                    rest = b""  # closed with our bytes still unread
                writer.close()
                reader, writer = await asyncio.open_connection(
                    *backend.address
                )
                writer.write(b"REQ u-1 1\n")
                other = await _replies(reader, 1)
                writer.close()
                return rest, other

        assert asyncio.run(scenario()) == (b"", [b"DENY 1\n"])


async def _wedge(backend: ReplicaBackend) -> socket.socket:
    """Connect a client that pipelines requests and never reads, and
    feed it until the backend holds replies it cannot deliver."""
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await loop.sock_connect(sock, backend.address)
    block = b"".join(b"REQ u-1 %0200d\n" % seq for seq in range(100))
    deadline = time.monotonic() + 5.0
    while not any(
        t.get_write_buffer_size() for t in backend._connections
    ):
        assert time.monotonic() < deadline, "never saw backpressure"
        try:
            sock.send(block)
        except BlockingIOError:
            pass
        await asyncio.sleep(0)
    return sock


class TestRetirement:
    """Retiring is null-routing: it never waits on a peer."""

    def test_stop_does_not_wait_for_a_peer_that_never_reads(self, config):
        async def scenario():
            backend = ReplicaBackend(config, "r-9")
            await backend.start()
            host, port = backend.address
            idle, idle_writer = await asyncio.open_connection(host, port)
            sock = await _wedge(backend)
            try:
                started = time.monotonic()
                await asyncio.wait_for(backend.stop(), 1.0)
                elapsed = time.monotonic() - started
                with pytest.raises(OSError):
                    await asyncio.open_connection(host, port)
                eof = await asyncio.wait_for(idle.readline(), 1.0)
                return elapsed, eof
            finally:
                sock.close()
                idle_writer.close()

        elapsed, eof = asyncio.run(scenario())
        assert elapsed < 1.0
        assert eof == b""  # the idle client still gets a clean EOF

    def test_connection_accepted_as_the_port_went_dark_is_dropped(
        self, config, clock
    ):
        # The loop can deliver connection_made after stop() has run; such
        # a connection must not outlive the retirement it never saw.
        backend = _backend(config, clock)  # no listener: same as stopped
        wire = _Wire()
        _Connection(backend).connection_made(wire)
        assert wire.aborted
        assert not backend._connections

    def test_pool_retire_does_not_wait_either(self, config):
        async def scenario():
            pool = ReplicaPool(config)
            await pool.start()
            sock = await _wedge(pool.get("r-1"))
            try:
                started = time.monotonic()
                await asyncio.wait_for(pool.retire("r-1"), 1.0)
                return time.monotonic() - started, pool.n_active
            finally:
                sock.close()
                await pool.stop()

        elapsed, n_active = asyncio.run(scenario())
        assert elapsed < 1.0
        assert n_active == 2
