"""Replica backends: lightweight asyncio TCP application servers.

Each :class:`ReplicaBackend` is the live analogue of
:class:`repro.cloudsim.replica.ReplicaServer`: bound to its own unique
``(host, port)`` address, enforcing whitelist admission ("only admitting
clients whose IPs are confirmed by the referring load balancer" — here,
client IDs confirmed by the coordinator), and owning one finite
resource, a token bucket standing in for the replica's service
capacity.  A drained bucket throttles requests, and a sustained
throttle ratio raises the ``attacked`` signal the coordinator's
detection sweep polls — saturation *is* the observable, exactly as in
the paper's load-based detection.

Wire protocol (UTF-8 lines)::

    C -> R:  REQ <client_id> <seq>
    R -> C:  OK <seq> <replica_id>     served (echo identifies routing)
             THROTTLED <seq>           bucket drained (overload)
             DENY <seq>                client not whitelisted
             MOVED <seq>               replica quiescing/retired

Each connection is one :class:`_Connection` protocol object: every
complete line of a received chunk is answered in the read callback and
the replies leave in one write.  A peer that does not read its replies
stops being read (``pause_reading``), an unfinished line over 64 KiB
closes the connection, and :meth:`ReplicaBackend.stop` waits on no peer.

A received chunk is one arrival: the clock is read once per chunk, and
each run of consecutive requests from one client is settled together —
one bucket grant of ``min(k, ⌊tokens⌋)`` and one monitor record per
outcome — with the verdicts, bucket level and detector bytes that
answering the ``k`` requests one at a time at that instant would give.
A run of identical lines (a flood bot pipelines one request line over
and over) is parsed once, and the replies to its equal seqs are one
formatted string, repeated.  With trust on, the tier gate and the
profile update stay per request.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from itertools import groupby
from typing import Callable

from ..detect import HeavyHitterReport, SketchParams
from ..obs.instruments import DISABLED, Instruments
from ..trust import TrustManager
from .config import ServiceConfig
from .tokens import SaturationMonitor, SketchSaturationMonitor, TokenBucket

__all__ = ["BackendStats", "ReplicaBackend"]

#: ``whitelist.get`` default: ``None`` is the exact monitor's entry.
_NOT_ADMITTED = object()
#: longest unfinished line a connection may hold (asyncio's stream limit).
_MAX_LINE = 2 ** 16


class BackendStats:
    """Lifetime counters for one replica backend."""

    __slots__ = ("served", "throttled", "denied", "moved")

    def __init__(self) -> None:
        self.served = 0
        self.throttled = 0
        self.denied = 0
        self.moved = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "served": self.served,
            "throttled": self.throttled,
            "denied": self.denied,
            "moved": self.moved,
        }


class ReplicaBackend:
    """One live replica server at a unique localhost port.

    Args:
        config: shared service tunables (bucket sizing, saturation
            thresholds).
        replica_id: stable identifier (``r-<n>``), echoed in responses
            so clients and tests can observe routing.
        clock: monotonic time source, injectable for tests.
        instruments: optional :class:`repro.obs.Instruments` (``None``
            is :data:`repro.obs.DISABLED`; the process default is not
            read); per-request outcomes land in
            ``service_token_bucket_requests_total``, whose counter is
            bound once here so the request hot path pays no lookup.
        trust: optional shared :class:`repro.trust.TrustManager`; when
            given, whitelisted requests pass the graduated tier gate
            *between* the whitelist check and the token bucket —
            DENIED-tier clients get the DENY verdict, THROTTLED-tier
            clients get THROTTLED for all but one in
            ``throttle_every`` requests, and neither spends bucket
            tokens.  Gated rejections still land in the saturation
            monitor: the flood *is* the detection signal, and a
            policy-starved bot must keep looking like an attack so
            the shuffle loop can corner it.
    """

    def __init__(
        self,
        config: ServiceConfig,
        replica_id: str,
        clock: Callable[[], float] = time.monotonic,
        instruments: Instruments | None = None,
        trust: TrustManager | None = None,
    ) -> None:
        self.config = config
        self.replica_id = replica_id
        self.instruments = instruments or DISABLED
        self.trust = trust
        self._requests_total = self.instruments.registry.counter(
            "service_token_bucket_requests_total",
            "Requests by replica and token-bucket outcome.",
            ("replica", "outcome"),
        )
        self.bucket = TokenBucket(
            rate=config.bucket_rate, burst=config.bucket_burst, clock=clock
        )
        self.monitor: SaturationMonitor | SketchSaturationMonitor
        if config.detector == "sketch":
            self.monitor = SketchSaturationMonitor(
                window=config.saturation_window,
                overload_ratio=config.overload_ratio,
                min_events=config.min_window_events,
                clock=clock,
                params=SketchParams(
                    epsilon=config.sketch_epsilon,
                    top_k=config.sketch_top_k,
                ),
            )
        else:
            self.monitor = SaturationMonitor(
                window=config.saturation_window,
                overload_ratio=config.overload_ratio,
                min_events=config.min_window_events,
                clock=clock,
            )
        self._clock = clock
        # client id -> its sketch key (``monitor.positions``), hashed
        # once at admission instead of on every request.
        self.whitelist: dict[str, array | None] = {}
        self.stats = BackendStats()
        self.quiescing = False
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Transport] = set()
        self.host = config.host
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, port: int = 0) -> None:
        """Bind and serve at a fresh port (0 = OS-assigned)."""
        if self._server is not None:
            raise RuntimeError(f"{self.replica_id} already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Retire the backend: the port stops accepting connections.

        The live analogue of null-routing a retired replica's address —
        a bot still flooding it is wasting its effort on a dead socket,
        and one that is not reading its replies is owed nothing: this
        returns without waiting on any peer.
        """
        self.quiescing = True
        if self._server is not None:
            self._server.close()
            self._server = None
        # Established connections outlive Server.close(); drop them so
        # clients see EOF now instead of a half-dead socket.  close()
        # flushes first, and a peer that is not reading never lets it.
        for transport in self._connections:
            if transport.get_write_buffer_size():
                transport.abort()
            else:
                transport.close()
        # Connections discard their own entries, but a concurrent
        # discard around this clear() is harmless: both sides only
        # remove, and each mutation is a single atomic set op on the
        # one event loop (no await splits a read-modify-write).
        # reprolint: disable=P9
        self._connections.clear()

    @property
    def is_active(self) -> bool:
        return self._server is not None and not self.quiescing

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise RuntimeError(f"{self.replica_id} not started")
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # admission control (driven by the coordinator)
    # ------------------------------------------------------------------
    def admit(self, client_id: str) -> None:
        """Whitelist a client the coordinator assigned here."""
        # Reached from both the control handler (assign) and the
        # shuffle path, but the entry and its sketch key land in one
        # container write with no await before it — the loop cannot
        # interleave anything.
        # reprolint: disable=P9
        self.whitelist[client_id] = self.monitor.positions(client_id)

    def evict(self, client_id: str) -> None:
        self.whitelist.pop(client_id, None)

    def quiesce(self) -> None:
        """Stop serving ahead of retirement: every request gets MOVED,
        pushing stragglers back to the assignment proxy."""
        self.quiescing = True

    @property
    def n_clients(self) -> int:
        return len(self.whitelist)

    # ------------------------------------------------------------------
    # attack signal
    # ------------------------------------------------------------------
    def attacked(self) -> bool:
        """True when the throttle ratio shows sustained saturation."""
        return self.monitor.saturated()

    def heavy_hitter_report(self) -> HeavyHitterReport | None:
        """Windowed top-talker report, or None in exact-detector mode.

        Only the sketch monitor attributes traffic to clients; the
        coordinator's confirmation sweep treats an absent report as "no
        auxiliary evidence" and falls back to pure saturation.
        """
        if not isinstance(self.monitor, SketchSaturationMonitor):
            return None
        total, throttled = self.monitor.counts()
        return HeavyHitterReport(
            replica_id=self.replica_id,
            time=self._clock(),
            window=self.config.saturation_window,
            total=total,
            throttled=throttled,
            top=tuple(self.monitor.heavy_hitters()),
            state_bytes=self.monitor.state_bytes(),
        )

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _answer(self, lines: list[str]) -> list[str]:
        """The replies to one received chunk's complete lines, in order.

        The chunk is one arrival: the clock is read once, and each run
        of consecutive requests from one client is settled together
        (:meth:`_settle`).  A run of identical lines, such as a flood
        bot's pipelined ``REQ <id> 0``, is split and checked once and
        joins the client's run as one ``(seq, repeat)`` segment.  A
        malformed line ends the run before it.
        """
        now = self._clock()
        replies: list[str] = []
        client_id = ""
        segments: list[tuple[str, int]] = []
        n = 0  # requests in ``segments``
        for line, same in groupby(lines):
            repeat = len(list(same))
            parts = line.split()
            if len(parts) != 3 or parts[0] != "REQ":
                if n:
                    self._settle(client_id, segments, n, now, replies)
                    segments, n = [], 0
                replies += ["ERR malformed"] * repeat
                continue
            if parts[1] != client_id:
                if n:
                    self._settle(client_id, segments, n, now, replies)
                client_id = parts[1]
                segments, n = [], 0
            segments.append((parts[2], repeat))
            n += repeat
        if n:
            self._settle(client_id, segments, n, now, replies)
        return replies

    def _settle(
        self,
        client_id: str,
        segments: list[tuple[str, int]],
        n: int,
        now: float,
        replies: list[str],
    ) -> None:
        """Answer a run of ``n`` requests from ``client_id`` arriving at
        ``now`` (``segments`` of ``(seq, repeat)`` in order), exactly as
        one at a time; the replies to a segment's equal seqs are one
        formatted string, repeated."""
        stats = self.stats
        if self.quiescing:
            stats.moved += n
            self._count("moved", n)
            for seq, repeat in segments:
                replies += [f"MOVED {seq}"] * repeat
            return
        positions = self.whitelist.get(client_id, _NOT_ADMITTED)
        if positions is _NOT_ADMITTED:
            stats.denied += n
            self._count("denied", n)
            for seq, repeat in segments:
                replies += [f"DENY {seq}"] * repeat
            return
        monitor = self.monitor
        trust = self.trust
        if trust is not None:
            # The tier gate and the profile move per request: each
            # verdict feeds the next request's gate.
            seqs = [seq for seq, repeat in segments for _ in range(repeat)]
            for seq in seqs:
                decision = trust.admit_decision(client_id)
                if decision == "ok" and self.bucket.try_acquire(1, now):
                    monitor.record(True, client_id, positions, 1, now)
                    stats.served += 1
                    self._count("served")
                    trust.observe(client_id, now, violation=False)
                    replies.append(f"OK {seq} {self.replica_id}")
                    continue
                # Gated or throttled, the request counts into the
                # saturation window: a policy-starved flood must keep
                # raising the attacked signal.
                monitor.record(False, client_id, positions, 1, now)
                if decision == "ok":
                    # A drained bucket is a violation signal: the client
                    # (or its cohort) outran the replica's capacity.
                    trust.observe(client_id, now, violation=True)
                    stats.throttled += 1
                    self._count("throttled")
                    replies.append(f"THROTTLED {seq}")
                    continue
                # Tier gate: a policy rejection, no bucket token spent.
                trust.observe(client_id, now, violation=False)
                if decision == "deny":
                    stats.denied += 1
                    self._count("trust_denied")
                    replies.append(f"DENY {seq}")
                else:
                    stats.throttled += 1
                    self._count("trust_throttled")
                    replies.append(f"THROTTLED {seq}")
            return
        # One grant for the run: the first min(n, ⌊tokens⌋) requests are
        # served, the rest throttled, and each part is one record.
        served = self.bucket.try_acquire(n, now)
        if served:
            monitor.record(True, client_id, positions, served, now)
            stats.served += served
            self._count("served", served)
        if served < n:
            monitor.record(False, client_id, positions, n - served, now)
            stats.throttled += n - served
            self._count("throttled", n - served)
        replica_id = self.replica_id
        for seq, repeat in segments:
            ok = served if served < repeat else repeat
            served -= ok
            if ok:
                replies += [f"OK {seq} {replica_id}"] * ok
            if ok < repeat:
                replies += [f"THROTTLED {seq}"] * (repeat - ok)

    def _count(self, outcome: str, n: int = 1) -> None:
        self._requests_total.inc(n, replica=self.replica_id, outcome=outcome)

    def snapshot(self) -> dict[str, object]:
        """Telemetry row for this backend."""
        self.instruments.registry.gauge(
            "service_token_bucket_tokens",
            "Tokens currently in a replica's bucket.",
            ("replica",),
        ).set(self.bucket.tokens, replica=self.replica_id)
        total, throttled = self.monitor.counts()
        snap: dict[str, object] = {
            "replica_id": self.replica_id,
            "port": self.port,
            "active": self.is_active,
            "attacked": self.attacked(),
            "n_clients": self.n_clients,
            "window_events": total,
            "window_throttled": throttled,
            "stats": self.stats.to_dict(),
        }
        report = self.heavy_hitter_report()
        if report is not None:
            snap["detector"] = "sketch"
            snap["heavy_hitters"] = [h.to_list() for h in report.top]
        if self.trust is not None:
            snap["trust_tiers"] = self.trust.tier_counts(
                sorted(self.whitelist)
            )
        return snap


class _Connection(asyncio.Protocol):
    """One client connection: each received chunk is answered whole."""

    __slots__ = ("_backend", "_transport", "_tail")

    def __init__(self, backend: ReplicaBackend) -> None:
        self._backend = backend
        self._tail = b""

    def connection_made(  # type: ignore[override]
        self, transport: asyncio.Transport
    ) -> None:
        self._transport = transport
        if self._backend._server is None:
            transport.abort()  # accepted just before stop(): already dark
        else:
            self._backend._connections.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self._backend._connections.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        # "\n" never occurs inside a UTF-8 sequence, so decoding the
        # complete lines at once equals decoding them one by one.
        lines, newline, self._tail = (self._tail + data).rpartition(b"\n")
        if newline:
            replies = self._backend._answer(
                lines.decode("utf-8", "replace").split("\n")
            )
            self._transport.write(("\n".join(replies) + "\n").encode("utf-8"))
        if len(self._tail) > _MAX_LINE:
            self._transport.close()

    def eof_received(self) -> None:
        if self._tail:  # an unterminated last line is still a request
            self.data_received(b"\n")

    # Backpressure: a peer that does not read its replies stops being
    # read, until the transport's write buffer drains.
    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()
