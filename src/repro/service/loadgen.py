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
"""

from __future__ import annotations

import asyncio
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
            stream as fast as the socket accepts them while a companion
            reader drains replies, the profile that actually saturates
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

    async def _bot(self, index: int) -> None:
        client_id = self.bot_ids[index]
        pace = BOT_BURST / BOT_RPS
        request = f"REQ {client_id} 0\n".encode("utf-8") * BOT_BURST
        await asyncio.sleep(self.config.bot_start_delay)
        while not self._stop.is_set():
            try:
                host, port = await self._locate(client_id)
                reader, writer = await asyncio.open_connection(host, port)
            except (asyncio.TimeoutError, OSError, ConnectionError):
                await asyncio.sleep(pace)
                continue
            try:
                while not self._stop.is_set():
                    # Open-loop burst: all requests on the wire before
                    # any reply is read.
                    writer.write(request)
                    await writer.drain()
                    moved = False
                    for _ in range(BOT_BURST):
                        line = await asyncio.wait_for(
                            reader.readline(), REQUEST_TIMEOUT
                        )
                        verb = line.split()[0] if line.strip() else b""
                        if verb == b"OK":
                            self.bot_served += 1
                        elif verb == b"THROTTLED":
                            self.bot_throttled += 1
                        else:
                            moved = True
                            break
                    if moved:
                        break  # replica moved out from under the bot
                    await asyncio.sleep(pace)
            except (asyncio.TimeoutError, OSError):
                pass  # target port went dark mid-flood: re-locate
            finally:
                writer.close()

    async def _bot_flood(self, index: int) -> None:
        """Unpaced flood bot: saturate the socket, never wait.

        Writes pipelined request blocks back-to-back with no pacing
        sleep — the only throttle is TCP backpressure via ``drain()``.
        A companion task consumes replies concurrently so the reply
        stream never stalls the flood (nor fills our receive buffer),
        and flags MOVED/DENY/EOF so the bot re-locates a shuffled-away
        replica.
        """
        client_id = self.bot_ids[index]
        block = f"REQ {client_id} 0\n".encode("utf-8") * BOT_BURST
        await asyncio.sleep(self.config.bot_start_delay)
        while not self._stop.is_set():
            try:
                host, port = await self._locate(client_id)
                reader, writer = await asyncio.open_connection(host, port)
            except (asyncio.TimeoutError, OSError, ConnectionError):
                await asyncio.sleep(REQUEST_TIMEOUT / 4)
                continue
            relocate = asyncio.Event()

            async def drain_replies(
                reader: asyncio.StreamReader = reader,
                relocate: asyncio.Event = relocate,
            ) -> None:
                try:
                    while True:
                        line = await reader.readline()
                        if not line:
                            break  # EOF: replica closed / moved
                        verb = line.split()[0] if line.strip() else b""
                        if verb == b"OK":
                            self.bot_served += 1
                        elif verb == b"THROTTLED":
                            self.bot_throttled += 1
                        else:  # MOVED / DENY
                            break
                except (OSError, asyncio.IncompleteReadError):
                    pass
                finally:
                    relocate.set()

            drain = asyncio.create_task(drain_replies())
            try:
                while not self._stop.is_set() and not relocate.is_set():
                    writer.write(block)
                    await writer.drain()
                    # drain() only yields above the high-water mark;
                    # yield explicitly so the server (same loop in the
                    # in-process harness) gets scheduled.
                    await asyncio.sleep(0)
            except (OSError, ConnectionError):
                pass  # target went dark mid-flood: re-locate
            finally:
                drain.cancel()
                await asyncio.gather(drain, return_exceptions=True)
                writer.close()

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
