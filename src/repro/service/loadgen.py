"""Concurrent load generation against the live service.

Drives the paper's client population over real sockets: hundreds of
benign clients issuing paced requests to their assigned replicas, plus
persistent insider bots that authenticate like ordinary clients, learn
their replica assignment, and flood it — then *follow the shuffles*,
re-querying the coordinator whenever their target goes dark (the
persistent-bot model of Section III: insiders cannot be filtered, only
isolated).

Benign outcomes aggregate into the shared :class:`repro.sim.qos.
QoSWindow` schema, so a live run's QoS timeline is directly comparable
with a cloudsim timeline of the same scenario.

A bot's replica connection is one :class:`asyncio.Protocol` object that
counts the replies of each received chunk at once, so a flood costs the
shared event loop one callback per chunk rather than one coroutine step
per reply line, and the count itself is two C-level byte counts rather
than a loop over lines; benign clients keep a request-reply stream each.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sim.qos import QoSWindow

__all__ = ["LoadConfig", "LoadGenerator"]

#: Per-bot nominal flood rate (requests/second) of the ``"burst"``
#: profile — sized so one bot pushes its replica past the token-bucket
#: capacity.
BOT_RPS = 200.0
#: Requests each bot pipelines before reading replies.  A strictly
#: request-reply bot self-limits to one request per round trip and can
#: fail to saturate a replica it has to itself; pipelining makes the
#: flood open-loop, like a real flooder that does not wait for answers.
BOT_BURST = 10
#: Client-side response deadline (seconds).
REQUEST_TIMEOUT = 2.0
#: The leading run of reply lines a bot counts: ``OK …`` and
#: ``THROTTLED …``; the first other line sends it back to the
#: coordinator.
_COUNTED = re.compile(rb"(?:(?:OK|THROTTLED) [^\n]*\n)*")


@dataclass(frozen=True)
class LoadConfig:
    """Tunables of one load scenario.

    Attributes:
        n_benign: benign client count.
        n_bots: persistent insider-bot count.
        benign_rps: per-benign-client request rate (requests/second).
        bot_profile: flood shape — ``"burst"`` paces pipelined bursts
            of :data:`BOT_BURST` at :data:`BOT_RPS` (the original,
            rate-targeted bot); ``"flood"`` never paces: requests
            stream as fast as the socket accepts them while replies are
            counted as they arrive, the profile that actually saturates
            the hot path the sketch detectors are built for.
        bot_start_delay: seconds of benign-only warmup before the flood
            (the paper's timeline: provision, then attack).
        window: QoS sampling window length (seconds).
        seed: base seed; every client derives its own spawned stream.
    """

    n_benign: int = 200
    n_bots: int = 20
    benign_rps: float = 2.0
    bot_profile: str = "burst"
    bot_start_delay: float = 1.0
    window: float = 0.5
    seed: int = 11

    def __post_init__(self) -> None:
        if self.n_benign < 0 or self.n_bots < 0:
            raise ValueError("client counts must be >= 0")
        if self.benign_rps <= 0:
            raise ValueError("benign_rps must be > 0")
        if self.bot_profile not in ("burst", "flood"):
            raise ValueError("bot_profile must be 'burst' or 'flood'")
        if self.window <= 0:
            raise ValueError("window must be > 0")


class LoadGenerator:
    """Run a benign + bot population against a live coordinator.

    Args:
        config: scenario tunables.
        control_host, control_port: the coordinator's control channel.
        context: optional zero-argument callable returning the defense
            state fields stamped onto each QoS window
            (``attacked``/``n_active``/``shuffles_completed``) — the
            in-process harness passes a view of the coordinator.
    """

    def __init__(
        self,
        config: LoadConfig,
        control_host: str,
        control_port: int,
        context: Callable[[], dict] | None = None,
    ) -> None:
        self.config = config
        self.control_host = control_host
        self.control_port = control_port
        self._context = context
        self.windows: list[QoSWindow] = []
        self.benign_ids = [f"u-{i:04d}" for i in range(config.n_benign)]
        self.bot_ids = [f"bot-{i:03d}" for i in range(config.n_bots)]
        self.bot_served = 0
        self.bot_throttled = 0
        self.total_sent = 0
        self.total_ok = 0
        self._stop = asyncio.Event()
        self._win_sent = 0
        self._win_ok = 0
        self._win_latency = 0.0
        self._win_latency_n = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, ok: bool, latency: float | None) -> None:
        self.total_sent += 1
        self._win_sent += 1
        if ok:
            self.total_ok += 1
            self._win_ok += 1
        # Failed-but-completed requests keep their measured duration
        # (shared schema contract); only timeouts have none.
        if latency is not None:
            self._win_latency += latency
            self._win_latency_n += 1

    # ------------------------------------------------------------------
    # control-plane helpers
    # ------------------------------------------------------------------
    async def _locate(self, client_id: str) -> tuple[str, int]:
        """Ask the coordinator where this client should connect."""
        reader, writer = await asyncio.open_connection(
            self.control_host, self.control_port
        )
        try:
            writer.write(f"WHERE {client_id}\n".encode("utf-8"))
            await writer.drain()
            line = await asyncio.wait_for(
                reader.readline(), REQUEST_TIMEOUT
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        parts = line.decode("utf-8", "replace").split()
        if len(parts) != 4 or parts[0] != "ASSIGN":
            raise ConnectionError(f"bad control reply: {parts!r}")
        host, _, port = parts[2].rpartition(":")
        return host, int(port)

    # ------------------------------------------------------------------
    # client behaviours
    # ------------------------------------------------------------------
    async def _benign(self, index: int) -> None:
        client_id = self.benign_ids[index]
        rng = np.random.default_rng([self.config.seed, index])
        interval = 1.0 / self.config.benign_rps
        # Staggered start desynchronises the population.
        await asyncio.sleep(interval * float(rng.uniform(0.0, 1.0)))
        reader: asyncio.StreamReader | None = None
        writer: asyncio.StreamWriter | None = None
        seq = 0
        try:
            while not self._stop.is_set():
                seq += 1
                started = time.monotonic()
                try:
                    if writer is None:
                        host, port = await self._locate(client_id)
                        reader, writer = await asyncio.open_connection(
                            host, port
                        )
                    writer.write(
                        f"REQ {client_id} {seq}\n".encode("utf-8")
                    )
                    await writer.drain()
                    line = await asyncio.wait_for(
                        reader.readline(), REQUEST_TIMEOUT
                    )
                    latency = time.monotonic() - started
                    verb = line.split()[0] if line.strip() else b""
                    if verb == b"OK":
                        self._record(True, latency)
                    elif verb == b"THROTTLED":
                        self._record(False, latency)
                    else:
                        # MOVED / DENY / closed: chase the reassignment.
                        self._record(False, latency)
                        writer.close()
                        writer = None
                except (asyncio.TimeoutError, OSError):
                    self._record(False, None)
                    if writer is not None:
                        writer.close()
                    writer = None
                await asyncio.sleep(interval * float(rng.uniform(0.5, 1.5)))
        finally:
            if writer is not None:
                writer.close()

    async def _bot_connection(self, client_id: str) -> _BotConnection:
        """Locate ``client_id``'s replica and connect a bot to it."""
        host, port = await self._locate(client_id)
        _, connection = await asyncio.get_running_loop().create_connection(
            lambda: _BotConnection(self), host, port
        )
        return connection

    async def _bot(self, index: int) -> None:
        client_id = self.bot_ids[index]
        pace = BOT_BURST / BOT_RPS
        request = f"REQ {client_id} 0\n".encode("utf-8") * BOT_BURST
        await asyncio.sleep(self.config.bot_start_delay)
        while not self._stop.is_set():
            try:
                connection = await self._bot_connection(client_id)
            except (asyncio.TimeoutError, OSError, ConnectionError):
                await asyncio.sleep(pace)
                continue
            try:
                while not self._stop.is_set() and not connection.relocate:
                    # Open-loop burst: all requests on the wire before
                    # any reply is read.
                    connection.transport.write(request)
                    await connection.writable.wait()
                    # Every reply of the burst, or a relocation; give up
                    # once REQUEST_TIMEOUT passes with no new reply.
                    due = connection.replies + BOT_BURST
                    while connection.replies < due and not connection.relocate:
                        connection.replied.clear()
                        await asyncio.wait_for(
                            connection.replied.wait(), REQUEST_TIMEOUT
                        )
                    if connection.relocate:
                        break  # replica moved out from under the bot
                    await asyncio.sleep(pace)
            except asyncio.TimeoutError:
                pass  # the replica went silent mid-burst: re-locate
            finally:
                connection.transport.close()

    async def _bot_flood(self, index: int) -> None:
        """Unpaced flood bot: saturate the socket, never wait.

        Writes pipelined request blocks back-to-back with no pacing
        sleep — the only throttle is TCP backpressure: the bot waits
        while its transport has paused writing.  The connection's
        protocol counts replies as they arrive, so the reply stream
        never stalls the flood (nor fills our receive buffer), and
        flags MOVED/DENY/EOF so the bot re-locates a shuffled-away
        replica.
        """
        client_id = self.bot_ids[index]
        block = f"REQ {client_id} 0\n".encode("utf-8") * BOT_BURST
        await asyncio.sleep(self.config.bot_start_delay)
        while not self._stop.is_set():
            try:
                connection = await self._bot_connection(client_id)
            except (asyncio.TimeoutError, OSError, ConnectionError):
                await asyncio.sleep(REQUEST_TIMEOUT / 4)
                continue
            try:
                while not self._stop.is_set() and not connection.relocate:
                    connection.transport.write(block)
                    await connection.writable.wait()
                    # The wait returns at once unless writing is paused;
                    # yield explicitly so the server (same loop in the
                    # in-process harness) gets scheduled.
                    await asyncio.sleep(0)
            finally:
                connection.transport.close()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    async def _sampler(self) -> None:
        origin = time.monotonic()
        while not self._stop.is_set():
            await asyncio.sleep(self.config.window)
            state = self._context() if self._context is not None else {}
            self.windows.append(QoSWindow(
                time=time.monotonic() - origin,
                benign_sent=self._win_sent,
                benign_ok=self._win_ok,
                latency_sum=self._win_latency,
                latency_count=self._win_latency_n,
                attacked_replicas=len(state.get("attacked", ())),
                active_replicas=int(state.get("n_active", 0)),
                shuffles_completed=int(
                    state.get("shuffles_completed", 0)
                ),
            ))
            self._win_sent = 0
            self._win_ok = 0
            self._win_latency = 0.0
            self._win_latency_n = 0

    # ------------------------------------------------------------------
    async def run(
        self,
        duration: float,
        until: Callable[[], bool] | None = None,
        settle: float = 2.0,
    ) -> list[QoSWindow]:
        """Drive the population for up to ``duration`` seconds.

        Args:
            duration: hard wall-clock cap on the scenario.
            until: optional early-exit predicate polled once per window
                (e.g. "coordinator reports quarantine"); once true, the
                load keeps running ``settle`` more seconds so post-
                convergence QoS windows are captured, then stops.
            settle: extra seconds after ``until`` fires.
        """
        self._stop = asyncio.Event()
        tasks = [
            asyncio.create_task(self._benign(i))
            for i in range(self.config.n_benign)
        ]
        bot = (
            self._bot_flood
            if self.config.bot_profile == "flood"
            else self._bot
        )
        tasks += [
            asyncio.create_task(bot(i))
            for i in range(self.config.n_bots)
        ]
        sampler = asyncio.create_task(self._sampler())
        origin = time.monotonic()
        reached_at: float | None = None
        while time.monotonic() - origin < duration:
            await asyncio.sleep(self.config.window)
            if until is not None and reached_at is None and until():
                reached_at = time.monotonic()
            if (
                reached_at is not None
                and time.monotonic() - reached_at >= settle
            ):
                break
        self._stop.set()
        for task in tasks + [sampler]:
            task.cancel()
        await asyncio.gather(*tasks, sampler, return_exceptions=True)
        return self.windows


class _BotConnection(asyncio.Protocol):
    """A bot's replica connection: each received chunk counted at once.

    Every complete ``OK …`` reply line counts into ``bot_served`` and
    every ``THROTTLED …`` line into ``bot_throttled`` of the load
    generator.  Any other line (``MOVED``, ``DENY``, a blank line) or a
    lost connection sets :attr:`relocate`, after which nothing more is
    counted.  A chunk is counted by two counts, with no loop over its
    lines: one regex match finds the leading run of ``OK``/``THROTTLED``
    lines, then its newlines and its ``"\\nTHROTTLED "`` line starts
    are counted.
    """

    __slots__ = (
        "_load", "_tail", "transport", "replies", "relocate",
        "replied", "writable",
    )

    def __init__(self, load: LoadGenerator) -> None:
        self._load = load
        self._tail = b""
        #: ``OK`` plus ``THROTTLED`` replies counted so far
        self.replies = 0
        #: the replica moved, refused or closed: the bot must re-locate
        self.relocate = False
        #: set by each chunk that counted a reply or relocated
        self.replied = asyncio.Event()
        #: clear while the transport has paused writing (backpressure)
        self.writable = asyncio.Event()
        self.writable.set()

    def connection_made(  # type: ignore[override]
        self, transport: asyncio.Transport
    ) -> None:
        self.transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        self._relocate()

    def data_received(self, data: bytes) -> None:
        if self.relocate:
            return
        # The leading newline is a sentinel: every counted line starts
        # after a "\n", so "\nTHROTTLED " matches line starts only.
        buffer = b"\n" + self._tail + data
        cut = buffer.rfind(b"\n") + 1
        self._tail = buffer[cut:]
        counted = _COUNTED.match(buffer, 1, cut).end()
        if counted < cut:  # MOVED, DENY, a blank line
            self._relocate()
        replies = buffer.count(b"\n", 1, counted)
        if replies:
            throttled = buffer.count(b"\nTHROTTLED ", 0, counted)
            self._load.bot_served += replies - throttled
            self._load.bot_throttled += throttled
            self.replies += replies
            self.replied.set()

    def _relocate(self) -> None:
        self.relocate = True
        self.replied.set()
        self.writable.set()  # a paused writer must see the relocation

    def pause_writing(self) -> None:
        self.writable.clear()

    def resume_writing(self) -> None:
        self.writable.set()
