"""Load generator: config validation, the bots' reply protocol (no
sockets), a small live benign run and a live flood."""

from __future__ import annotations

import asyncio
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import (
    LoadConfig,
    LoadGenerator,
    ServiceConfig,
    ServiceCoordinator,
    loadgen,
    run_scenario,
)
from repro.service.loadgen import BOT_BURST, _BotConnection


class TestLoadConfig:
    def test_defaults_match_the_acceptance_scenario(self):
        config = LoadConfig()
        assert (config.n_benign, config.n_bots) == (200, 20)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_benign": -1},
            {"n_bots": -1},
            {"benign_rps": 0.0},
            {"bot_profile": "trickle"},
            {"window": 0.0},
            {"window": -0.5},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LoadConfig(**kwargs)

    def test_client_id_spaces_are_disjoint(self):
        load = LoadGenerator(
            LoadConfig(n_benign=5, n_bots=3),
            control_host="127.0.0.1",
            control_port=1,
        )
        assert len(load.benign_ids) == 5
        assert len(load.bot_ids) == 3
        assert not set(load.benign_ids) & set(load.bot_ids)


class TestLiveBenignRun:
    def test_benign_population_is_served_and_sampled(self):
        service_config = ServiceConfig(
            n_replicas=2, telemetry_port=None, detection_interval=0.5
        )
        load_config = LoadConfig(
            n_benign=6, n_bots=0, benign_rps=8.0, window=0.25, seed=3
        )

        async def scenario():
            coordinator = ServiceCoordinator(service_config)
            await coordinator.start()
            try:
                load = LoadGenerator(
                    load_config,
                    control_host=service_config.host,
                    control_port=coordinator.control_port,
                    context=lambda: {
                        "attacked": [],
                        "n_active": coordinator.pool.n_active,
                        "shuffles_completed": (
                            coordinator.shuffles_completed
                        ),
                    },
                )
                windows = await load.run(duration=2.0)
                return load, windows, dict(coordinator.assignments)
            finally:
                await coordinator.stop()

        load, windows, assignments = asyncio.run(scenario())
        assert load.total_ok > 0
        # No bots, capacity provisioned for the population: everything
        # the clients sent should have been served.
        assert load.total_ok == load.total_sent
        assert windows, "sampler must emit QoS windows"
        assert all(w.active_replicas == 2 for w in windows)
        assert set(assignments) == set(load.benign_ids)
        served_windows = [w for w in windows if w.benign_sent]
        assert served_windows
        assert all(
            w.success_ratio == 1.0 and w.mean_latency > 0.0
            for w in served_windows
        )


# ----------------------------------------------------------------------
# the bots' reply protocol, driven without sockets
# ----------------------------------------------------------------------
def reference_counts(stream: bytes) -> tuple[int, int, bool]:
    """Line by line, as the bots counted replies off a ``StreamReader``
    (``readline`` until EOF): ``(served, throttled, relocated)``."""
    served = throttled = 0
    for line in io.BytesIO(stream):
        verb = line.split()[0] if line.strip() else b""
        if verb == b"OK":
            served += 1
        elif verb == b"THROTTLED":
            throttled += 1
        else:  # MOVED / DENY / blank
            return served, throttled, True
    return served, throttled, False


class FakeTransport:
    """Records writes; pauses its protocol's writing after
    ``pause_after`` of them, inside the write that crosses the mark (as
    asyncio's transports call ``pause_writing``); ``on_write`` sees each
    written block."""

    def __init__(self, protocol, pause_after=None, on_write=None):
        self.protocol = protocol
        self.pause_after = pause_after
        self.on_write = on_write
        self.writes: list[bytes] = []
        self.closed = False
        protocol.connection_made(self)

    def write(self, data: bytes) -> None:
        self.writes.append(data)
        if len(self.writes) == self.pause_after:
            self.protocol.pause_writing()
        if self.on_write is not None:
            self.on_write(data)

    def close(self) -> None:
        self.closed = True


def _load() -> LoadGenerator:
    return LoadGenerator(
        LoadConfig(n_benign=0, n_bots=1, bot_start_delay=0.0),
        control_host="127.0.0.1",
        control_port=1,
    )


_COUNTED = st.one_of(
    st.integers(0, 999).map(lambda seq: b"OK %d r-%d\n" % (seq, seq % 7)),
    st.integers(0, 999).map(lambda seq: b"THROTTLED %d\n" % seq),
)
_RELOCATING = st.sampled_from([b"MOVED 4\n", b"DENY 4\n", b"\n"])


#: a reply token: any printable non-space ASCII, or one that holds a
#: counted verb without starting a line with it.
_TOKEN = st.one_of(
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E),
            min_size=1, max_size=6).map(str.encode),
    st.sampled_from([b"OK", b"THROTTLED", b"xTHROTTLED", b"OKAY"]),
)
_END = st.sampled_from([b"\n", b"\r\n"])


def _reply_lines(verbs):
    """A verb, one or two tokens and an LF or CRLF ending."""
    return st.builds(
        lambda verb, tokens, end: b" ".join([verb, *tokens]) + end,
        verbs, st.lists(_TOKEN, min_size=1, max_size=2), _END,
    )


_ANY_COUNTED = _reply_lines(st.sampled_from([b"OK", b"THROTTLED"]))
#: ``MOVED``/``DENY``/any token as the verb, or a blank line (a token
#: that happens to be ``OK`` makes a counted line: the reference says).
_ANY_OTHER = st.one_of(
    _reply_lines(st.one_of(st.sampled_from([b"MOVED", b"DENY"]), _TOKEN)),
    _END,
)


class TestBotConnection:
    @given(
        head=st.lists(_COUNTED, max_size=40),
        stop=st.one_of(st.none(), _RELOCATING),
        rest=st.lists(_COUNTED, max_size=5),
        data=st.data(),
    )
    def test_counts_equal_the_line_by_line_reference(
        self, head, stop, rest, data
    ):
        stream = b"".join(head) + (
            b"" if stop is None else stop + b"".join(rest)
        )
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(stream)), max_size=12)
        ))
        load = _load()
        connection = _BotConnection(load)
        FakeTransport(connection)
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            connection.data_received(stream[start:end])
        served, throttled, relocated = reference_counts(stream)
        assert (load.bot_served, load.bot_throttled) == (served, throttled)
        assert connection.replies == served + throttled
        assert connection.relocate == relocated == (stop is not None)
        # Nothing after the first relocating line is counted.
        connection.data_received(b"OK 5 r-1\nTHROTTLED 6\n")
        assert (load.bot_served, load.bot_throttled) == (
            (served, throttled) if relocated
            else (served + 1, throttled + 1)
        )

    @given(
        head=st.lists(_ANY_COUNTED, max_size=30),
        stop=st.one_of(st.none(), _ANY_OTHER),
        rest=st.lists(_ANY_COUNTED, max_size=5),
        data=st.data(),
    )
    def test_counts_key_on_the_line_start_only(self, head, stop, rest, data):
        # Arbitrary seq and replica tokens ("OK", "xTHROTTLED", ...) and
        # CRLF endings: a line counts by the verb it starts with, never
        # by a verb inside it.
        stream = b"".join(head) + (
            b"" if stop is None else stop + b"".join(rest)
        )
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(stream)), max_size=12)
        ))
        load = _load()
        connection = _BotConnection(load)
        FakeTransport(connection)
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            connection.data_received(stream[start:end])
        served, throttled, relocated = reference_counts(stream)
        assert (load.bot_served, load.bot_throttled) == (served, throttled)
        assert connection.replies == served + throttled
        assert connection.relocate == relocated

    def test_relocating_line_mid_chunk_stops_the_count(self):
        load = _load()
        connection = _BotConnection(load)
        FakeTransport(connection)
        connection.data_received(
            b"OK THROTTLED r-1\nTHROTTLED 2\r\nDENY THROTTLED\n"
            b"OK 4 r-1\nTHROTTLED 5\nTHROTTLED 6\nOK 7 r"
        )
        assert (load.bot_served, load.bot_throttled) == (1, 1)
        assert connection.replies == 2
        assert connection.relocate

    def test_unfinished_tail_waits_for_its_newline(self):
        load = _load()
        connection = _BotConnection(load)
        FakeTransport(connection)
        connection.data_received(b"OK 1 r-1\nTHROT")
        assert (load.bot_served, load.bot_throttled) == (1, 0)
        connection.data_received(b"TLED 2\nOK 3 r-1")
        assert (load.bot_served, load.bot_throttled) == (1, 1)
        connection.connection_lost(None)  # "OK 3" never got its newline
        assert connection.relocate
        assert (load.bot_served, load.bot_throttled) == (1, 1)

    def test_connection_lost_relocates_and_releases_a_paused_writer(self):
        async def scenario():
            connection = _BotConnection(_load())
            FakeTransport(connection)
            connection.pause_writing()
            writer = asyncio.create_task(connection.writable.wait())
            await asyncio.sleep(0.01)
            assert not writer.done()
            connection.connection_lost(ConnectionResetError())
            await asyncio.wait_for(writer, 1.0)
            return connection

        assert asyncio.run(scenario()).relocate

    def test_paused_transport_gets_no_write_until_resumed(self, monkeypatch):
        load = _load()
        transports: list[FakeTransport] = []

        async def connect(client_id):
            connection = _BotConnection(load)
            transports.append(FakeTransport(connection, pause_after=3))
            if len(transports) > 1:
                load._stop.set()
            return connection

        monkeypatch.setattr(load, "_bot_connection", connect)

        async def scenario():
            bot = asyncio.create_task(load._bot_flood(0))
            for _ in range(50):
                await asyncio.sleep(0)
            first = transports[0]
            assert len(first.writes) == 3  # paused inside the third
            first.protocol.resume_writing()
            for _ in range(10):
                await asyncio.sleep(0)
            assert len(first.writes) > 3
            first.protocol.connection_lost(None)  # relocate: reconnect
            await asyncio.wait_for(bot, 1.0)

        asyncio.run(scenario())
        assert transports[0].closed and transports[1].closed
        assert all(
            block == b"REQ bot-000 0\n" * BOT_BURST
            for block in transports[0].writes
        )

    def test_burst_bot_counts_its_replies_and_relocates(self, monkeypatch):
        load = _load()
        # Per burst, the replies the replica sends, cut into chunks.
        bursts = [
            [
                b"OK 0 r-1\nOK 0 r-1\nTHROT",
                b"TLED 0\n" + b"THROTTLED 0\n" * 7,
            ],
            [b"THROTTLED 0\n" * 4, b"MOVED 0\n" + b"MOVED 0\n" * 5],
        ]
        transports: list[FakeTransport] = []

        async def connect(client_id):
            connection = _BotConnection(load)
            loop = asyncio.get_running_loop()

            def answer(block):
                assert block == b"REQ bot-000 0\n" * BOT_BURST
                for chunk in bursts[len(transport.writes) - 1]:
                    loop.call_soon(connection.data_received, chunk)

            transport = FakeTransport(connection, on_write=answer)
            transports.append(transport)
            if len(transports) > 1:
                load._stop.set()
            return connection

        monkeypatch.setattr(load, "_bot_connection", connect)
        asyncio.run(asyncio.wait_for(load._bot(0), 5.0))
        stream = b"".join(b"".join(chunks) for chunks in bursts)
        assert reference_counts(stream) == (2, 12, True)
        assert (load.bot_served, load.bot_throttled) == (2, 12)
        assert len(transports[0].writes) == 2
        assert transports[0].closed and transports[1].closed

    def test_burst_bot_gives_up_after_a_silent_timeout(self, monkeypatch):
        monkeypatch.setattr(loadgen, "REQUEST_TIMEOUT", 0.05)
        load = _load()
        transports: list[FakeTransport] = []

        async def connect(client_id):
            connection = _BotConnection(load)
            loop = asyncio.get_running_loop()
            transports.append(FakeTransport(
                connection,
                on_write=lambda block: loop.call_soon(
                    connection.data_received, b"THROTTLED 0\n" * 3
                ),
            ))
            if len(transports) > 1:
                load._stop.set()
            return connection

        monkeypatch.setattr(load, "_bot_connection", connect)
        asyncio.run(asyncio.wait_for(load._bot(0), 5.0))
        # Three of ten replies, then silence: the bot re-locates.
        assert (load.bot_served, load.bot_throttled) == (0, 3)
        assert len(transports[0].writes) == 1
        assert not transports[0].protocol.relocate
        assert transports[0].closed


@pytest.mark.slow
class TestLiveFlood:
    def test_flood_bots_are_quarantined_within_budget(self):
        report = asyncio.run(run_scenario(
            ServiceConfig(
                n_replicas=3, seed=7, telemetry_port=None,
                detector="sketch",
            ),
            LoadConfig(n_benign=30, n_bots=3, bot_profile="flood", seed=5),
            duration=30.0,
            settle=0.5,
        ))
        assert report.quarantined, report.snapshot
        assert not report.budget_exhausted
        assert report.shuffles_completed <= report.budget
        assert report.benign_clean_fraction >= 0.95
        assert report.bot_throttled > 0
