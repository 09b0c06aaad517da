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

from line_reference import LineByLine
from repro.obs import Instruments
from repro.service import ReplicaBackend, ReplicaPool
from repro.service.backend import _Connection
from repro.service.tokens import SketchSaturationMonitor
from repro.trust import TrustConfig, TrustManager, TrustTier


def _backend(config, clock) -> ReplicaBackend:
    return ReplicaBackend(config, "r-1", clock=clock)


class TestRespond:
    """The pure request->reply logic, no sockets involved: the lines of
    one received chunk in, their replies out."""

    def test_malformed_request(self, config, clock):
        backend = _backend(config, clock)
        assert backend._answer(["GARBAGE", ""]) == ["ERR malformed"] * 2

    def test_unknown_client_denied(self, config, clock):
        backend = _backend(config, clock)
        assert backend._answer(["REQ u-1 7"]) == ["DENY 7"]
        assert backend.stats.denied == 1

    def test_deny_does_not_feed_the_attack_signal(self, config, clock):
        # A non-whitelisted flood must not be able to saturate a replica:
        # detection counts only whitelisted traffic against the bucket.
        backend = _backend(config, clock)
        for seq in range(100):
            backend._answer([f"REQ bot-X {seq}"])
        assert backend.monitor.counts() == (0, 0)
        assert not backend.attacked()

    def test_whitelisted_client_served_then_throttled(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("u-1")
        replies = backend._answer([f"REQ u-1 {seq}" for seq in range(6)])
        # bucket_burst=5 in the test config: five OKs, then throttled.
        assert replies[:5] == [f"OK {i} r-1" for i in range(5)]
        assert replies[5] == "THROTTLED 5"
        assert backend.stats.served == 5
        assert backend.stats.throttled == 1

    def test_sustained_throttling_raises_attacked(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("bot-0")
        backend._answer([f"REQ bot-0 {seq}" for seq in range(20)])
        assert backend.attacked()

    def test_quiescing_moves_everyone(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("u-1")
        backend.quiesce()
        assert backend._answer(["REQ u-1 1"]) == ["MOVED 1"]
        assert backend.stats.moved == 1

    def test_evict_revokes_admission(self, config, clock):
        backend = _backend(config, clock)
        backend.admit("u-1")
        backend.evict("u-1")
        assert backend._answer(["REQ u-1 1"]) == ["DENY 1"]
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
        assert wide._answer(["REQ u-1 1"]) == ["OK 1 r-2"]
        assert wide.monitor.counts() == (1, 0)
        assert source._answer(["REQ u-1 2"]) == ["DENY 2"]

    def test_held_positions_attribute_like_hashing(
        self, sketch_config, clock
    ):
        backend = _backend(sketch_config, clock)
        backend.admit("bot-0")
        backend.admit("u-1")
        backend._answer(["REQ u-1 0"])
        for seq in range(1, 40):
            backend._answer([f"REQ bot-0 {seq}"])
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
                backend._answer([f"REQ {cid} {seq}"])
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


_CLIENTS = ["good", "bot", "stranger", "shady", "denied"]
#: lines a run of "junk" cycles through: a blank line, two malformed
#: ones, an unknown id with an undecodable seq, and a well-formed
#: request ended by CRLF.
_JUNK = [
    b"\n", b"GARBAGE\r\n", b"REQ good\n", b"REQ caf\xc3\xa9 \xff\xfe\n",
    b"REQ bot 0\r\n",
]
#: (detector, trust on, sketch_top_k): top_k 1, 2 and 8 put a pipelining
#: client's promotion into the summary early in, late in and beyond a run.
_SETUPS = [
    ("exact", False, 8), ("exact", True, 8),
    *[("sketch", trusted, top_k)
      for trusted in (False, True) for top_k in (1, 2, 8)],
]
#: (rate, burst): the test default, and a bucket whose level is
#: fractional after every refill.
_BUCKETS = [(50.0, 5.0), (7.3, 2.5)]


#: run kinds whose ``k`` lines are one line repeated, as in a flood
#: bot's pipelined block: a flooder's fixed seq (also CRLF-ended), a
#: benign client's, a stranger's, each trust tier's, and malformed lines.
_REPEATED = {
    "bot*": b"REQ bot 0\n",
    "bot*crlf": b"REQ bot 0\r\n",
    "good*": b"REQ good 7\n",
    "stranger*": b"REQ stranger 0\n",
    "shady*": b"REQ shady 3\n",
    "denied*": b"REQ denied 3\n",
    "blank*": b"\n",
    "garbage*": b"GARBAGE\r\n",
    "short*": b"REQ bot\n",
}


def _stream(runs: list[tuple[str, int]]) -> bytes:
    """Runs of ``k`` pipelined requests from one client (or of junk),
    each with its own seq, or ``k`` copies of one line (``_REPEATED``)."""
    lines = []
    for client, k in runs:
        for _ in range(k):
            if client in _REPEATED:
                lines.append(_REPEATED[client])
            elif client == "junk":
                lines.append(_JUNK[len(lines) % len(_JUNK)])
            else:
                lines.append(b"REQ %s %d\n" % (client.encode(), len(lines)))
    return b"".join(lines)


def _setup_backend(config, clock, setup, bucket) -> ReplicaBackend:
    """Every verdict the backend can give: a flooder, two admitted
    clients, a stranger and, with trust on, a THROTTLED and a DENIED
    tier."""
    detector, trusted, top_k = setup
    rate, burst = bucket
    trust = TrustManager(TrustConfig(seed=7)) if trusted else None
    backend = ReplicaBackend(
        dataclasses.replace(
            config, detector=detector, sketch_top_k=top_k,
            bucket_rate=rate, bucket_burst=burst,
        ),
        "r-0", clock=clock, trust=trust,
        instruments=Instruments.create(clock=clock),
    )
    for client, tier, score in [
        ("good", None, 0.0),
        ("bot", None, 0.0),
        ("shady", TrustTier.THROTTLED, 0.3),
        ("denied", TrustTier.DENIED, 0.05),
    ]:
        backend.admit(client)
        if tier is not None and trust is not None:
            trust.table.ensure(client, now=0.0)
            trust.table.load_row(client, {
                "trust": score, "tier": int(tier), "tier_since": 0.0,
                "last_seen": 0.0, "requests": 0,
            })
    return backend


def _observable_state(backend: ReplicaBackend) -> tuple:
    monitor = backend.monitor
    if isinstance(monitor, SketchSaturationMonitor):
        window: object = [
            (cell.epoch, cell.total, cell.throttled,
             cell.sketch.to_bytes(), cell.hitters.to_bytes())
            for cell in monitor._window._cells
        ]
    else:
        window = (list(monitor._events), monitor._throttled_in_window)
    trust = backend.trust
    return (
        backend.stats.to_dict(),
        window,
        backend.bucket._tokens,
        backend.bucket._updated,
        None if trust is None else [
            trust.table.to_row(client) for client in trust.table.client_ids
        ],
        list(backend._requests_total.series()),
    )


class _ChunkClock:
    """Frozen within a chunk, stepped between chunks."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _replay(config, setup, bucket, stream, edges, steps, quiesce_at):
    """Feed ``stream`` cut at ``edges`` to the backend's protocol and to
    the line-by-line reference, each on a clock that steps by the next
    of ``steps`` before every chunk and is frozen within it."""
    backend_clock, reference_clock = _ChunkClock(), _ChunkClock()
    backend = _setup_backend(config, backend_clock, setup, bucket)
    reference = _setup_backend(config, reference_clock, setup, bucket)
    wire = _Wire()
    connection = _Connection(backend)
    backend._server = object()  # "started": connections are kept
    connection.connection_made(wire)
    line_by_line = LineByLine(reference)
    for number, (start, end) in enumerate(zip(edges, edges[1:])):
        step = steps[number % len(steps)] if steps else 0.0
        backend_clock.now += step
        reference_clock.now += step
        if start == quiesce_at:
            backend.quiesce()
            reference.quiesce()
        connection.data_received(stream[start:end])
        line_by_line.data_received(stream[start:end])
    return wire.sent, line_by_line.sent, backend, reference


class TestSameVerdicts:
    """One recorded byte stream, any segmentation, a clock frozen within
    each chunk: the protocol, which settles each client's run at once,
    answers and records exactly what the frozen line-by-line reference
    (``line_reference.py``) does."""

    @settings(
        max_examples=150,
        deadline=None,
        # `config` is a frozen dataclass: sharing it across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        setup=st.sampled_from(_SETUPS),
        bucket=st.sampled_from(_BUCKETS),
        runs=st.lists(
            st.tuples(
                st.sampled_from([*_CLIENTS, "junk", *_REPEATED]),
                st.integers(1, 30),
            ),
            min_size=1, max_size=12,
        ),
        data=st.data(),
    )
    def test_any_segmentation_matches_line_by_line(
        self, config, setup, bucket, runs, data
    ):
        stream = _stream(runs)
        cuts = data.draw(
            st.lists(st.integers(0, len(stream)), max_size=40), label="cuts"
        )
        steps = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.01, 0.07, 0.26, 1.5]), max_size=8
            ),
            label="steps",
        )
        quiesce_at = data.draw(
            st.none() | st.sampled_from(sorted(set(cuts)) or [0]),
            label="quiesce_at",
        )
        edges = sorted({0, len(stream), *cuts})
        sent, expected, backend, reference = _replay(
            config, setup, bucket, stream, edges, steps, quiesce_at
        )
        assert bytes(sent) == bytes(expected)
        assert _observable_state(backend) == _observable_state(reference)

    @pytest.mark.parametrize("bucket", _BUCKETS, ids=["whole", "fractional"])
    @pytest.mark.parametrize(
        "setup", _SETUPS, ids=[
            f"{detector}-{'trust' if trusted else 'plain'}-k{top_k}"
            for detector, trusted, top_k in _SETUPS
        ],
    )
    def test_pipelined_flood_matches_line_by_line(self, config, setup, bucket):
        # A flooder's long runs between benign requests, cut every
        # 97 bytes, the clock stepping in uneven strides.
        runs = [("good", 1), ("bot", 40), ("shady", 6), ("good", 2),
                ("bot", 120), ("junk", 7), ("denied", 5), ("bot", 60),
                ("stranger", 9), ("bot", 200), ("good", 1)]
        stream = _stream(runs)
        edges = sorted({0, len(stream), *range(0, len(stream), 97)})
        sent, expected, backend, reference = _replay(
            config, setup, bucket, stream, edges, [0.0, 0.03, 0.0, 0.11],
            quiesce_at=edges[-5],
        )
        verdicts = {line.split()[0] for line in bytes(expected).splitlines()}
        assert {b"OK", b"THROTTLED", b"DENY", b"MOVED", b"ERR"} <= verdicts
        assert bytes(sent) == bytes(expected)
        assert _observable_state(backend) == _observable_state(reference)


    @pytest.mark.parametrize("bucket", _BUCKETS, ids=["whole", "fractional"])
    @pytest.mark.parametrize(
        "setup", _SETUPS, ids=[
            f"{detector}-{'trust' if trusted else 'plain'}-k{top_k}"
            for detector, trusted, top_k in _SETUPS
        ],
    )
    def test_repeated_line_flood_matches_line_by_line(
        self, config, setup, bucket
    ):
        # Flood bots' blocks of one repeated line, so that each chunk
        # holds runs of identical lines: a flooder's CRLF and LF copies
        # of one request side by side, its repeated line next to its own
        # distinct seqs, repeated malformed and blank lines, a stranger's
        # flood, and both trust tiers' floods.  Cut every 4096 bytes,
        # as a socket read of a busy connection is.
        runs = [("good", 1), ("bot*", 400), ("bot*crlf", 50), ("bot", 3),
                ("bot*", 120), ("garbage*", 30), ("blank*", 4),
                ("short*", 6), ("good*", 9), ("bot*", 300),
                ("stranger*", 100), ("shady*", 40), ("denied*", 25),
                ("good", 2), ("bot*", 900)]
        stream = _stream(runs)
        edges = sorted({0, len(stream), *range(0, len(stream), 4096)})
        sent, expected, backend, reference = _replay(
            config, setup, bucket, stream, edges, [0.0, 0.02, 0.09, 0.0],
            quiesce_at=edges[-2],
        )
        verdicts = {line.split()[0] for line in bytes(expected).splitlines()}
        assert {b"OK", b"THROTTLED", b"DENY", b"MOVED", b"ERR"} <= verdicts
        assert bytes(sent) == bytes(expected)
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
