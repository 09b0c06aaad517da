"""Replica application servers (paper Section III-C).

Each replica is bound to a unique, separately addressable network location,
enforces whitelist-based admission ("only admitting clients whose IPs are
confirmed by the referring load balancer"), and owns two finite resources:

- **ingress bandwidth** (packets/s) — what network floods exhaust.  Floods
  consume bandwidth *whether or not* the sender is whitelisted: filtering
  happens at the server, after the packets have already crossed its link.
- **compute** (work units/s) — what computational DDoS attacks exhaust.
  Only whitelisted traffic reaches application logic, which is why
  computational attacks in this model come from persistent bots acting as
  insiders.

A replica that is overloaded on either resource degrades service: requests
are dropped with probability growing in the overload factor, and response
processing slows down.  Client redirection is prioritized over application
logic (Section III-C), so shuffle notifications still go out from an
overwhelmed replica, only slower.

Traffic accounting on the heavy path is sketched, not enumerated: each
replica folds every request (and attributed flood mass) into a
fixed-memory :class:`repro.detect.SketchWindow`, so it can report *who*
is filling its window — :meth:`ReplicaServer.heavy_hitter_report` — at
a memory cost independent of population size.  Per-client dicts on this
path would grow with the client count, exactly what million-client runs
cannot afford.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..detect import HeavyHitterReport, SketchParams, SketchWindow
from .network import Endpoint, LoadMeter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import CloudContext


__all__ = ["ReplicaState", "ReplicaStats", "ReplicaServer"]


class ReplicaState(enum.Enum):
    """Lifecycle of a replica instance."""

    BOOTING = "booting"
    ACTIVE = "active"
    RETIRED = "retired"  # planned recycle after a shuffle
    FAILED = "failed"  # unplanned crash (see cloudsim.faults)


#: Read once here: an enum attribute lookup on the request path costs
#: more than the rest of the state test.
_ACTIVE = ReplicaState.ACTIVE

#: Half-life (sim-seconds) of both load meters' decaying rate.
LOAD_HALF_LIFE = 2.0
#: Utilization (a multiple of capacity) at which a replica is overloaded.
OVERLOAD_THRESHOLD = 1.0
#: Per-client WS push service time, drawn uniformly in [min, max).
REDIRECT_SERVICE_MIN = 0.02
REDIRECT_SERVICE_MAX = 0.06
#: Sliding window (sim-seconds) of each replica's sketched traffic.
DETECT_WINDOW = 4.0


def _drop_probability(factor: float, threshold: float) -> float:
    """:meth:`ReplicaServer.drop_probability` at overload ``factor``."""
    if factor < threshold:
        return 0.0
    return min(1.0, (factor - threshold) / max(factor, 1e-12))


@dataclass
class ReplicaStats:
    """Counters for one replica's lifetime."""

    requests_served: int = 0
    requests_dropped: int = 0
    requests_rejected: int = 0  # non-whitelisted
    requests_gated: int = 0  # rejected by the trust tier ladder
    flood_packets: float = 0.0
    redirects_sent: int = 0


class ReplicaServer:
    """One replica application server.

    Args:
        ctx: shared simulation context (clock, latency model, rng, config).
        endpoint: the replica's unique network location.
        net_capacity: ingress capacity in packets/second.
        cpu_capacity: compute capacity in work-units/second.
    """

    def __init__(
        self,
        ctx: "CloudContext",
        endpoint: Endpoint,
        net_capacity: float,
        cpu_capacity: float,
    ) -> None:
        self.ctx = ctx
        self.endpoint = endpoint
        self.net_capacity = net_capacity
        self.cpu_capacity = cpu_capacity
        self.state = ReplicaState.BOOTING
        # client id -> its sketch key (``traffic.positions``), taken
        # from ``ctx.sketch_keys`` at admission instead of hashed on
        # every request.
        self.whitelist: dict[str, array] = {}
        self.assigned_clients: dict[str, object] = {}
        self.net_meter = LoadMeter(half_life=LOAD_HALF_LIFE)
        self.cpu_meter = LoadMeter(half_life=LOAD_HALF_LIFE)
        self.traffic = SketchWindow(
            DETECT_WINDOW,
            params=SketchParams(epsilon=ctx.config.detect_epsilon),
        )
        self.stats = ReplicaStats()
        self.shuffling = False  # currently part of a shuffle operation

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Finish booting; the load balancer may now assign clients."""
        self.state = ReplicaState.ACTIVE

    def retire(self) -> None:
        """Take the replica offline and recycle it (Section III-C).

        Retired addresses are null-routed: floods aimed at them are wasted
        botnet effort, which is exactly how the moving target evades naive
        bots.
        """
        self.state = ReplicaState.RETIRED
        self.whitelist.clear()
        self.assigned_clients.clear()
        self.net_meter.reset()
        self.cpu_meter.reset()
        self.traffic.reset()

    def fail(self) -> None:
        """Unplanned crash: the instance vanishes with its state.

        Unlike :meth:`retire`, nothing was migrated first — the bound
        clients discover the loss when their next request dies and
        re-enter through DNS (the same straggler path used for missed
        shuffle redirects).
        """
        self.state = ReplicaState.FAILED
        self.whitelist.clear()
        self.assigned_clients.clear()
        self.net_meter.reset()
        self.cpu_meter.reset()
        self.traffic.reset()

    @property
    def is_active(self) -> bool:
        return self.state is _ACTIVE

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, client_id: str, client: object) -> None:
        """Whitelist a client (called on load-balancer/coordinator
        assignment, step 4 of the paper's Figure 1).

        The client's sketch positions are hashed by the first replica of
        this context to admit it and reused by every later one: all the
        context's windows share one ``(width, depth, seed)`` family.
        """
        keys = self.ctx.sketch_keys
        positions = keys.get(client_id)
        if positions is None:
            positions = keys[client_id] = self.traffic.positions(client_id)
        self.whitelist[client_id] = positions
        self.assigned_clients[client_id] = client

    def evict(self, client_id: str) -> None:
        """Remove a departed client's whitelist entry and binding."""
        self.whitelist.pop(client_id, None)
        self.assigned_clients.pop(client_id, None)

    @property
    def n_clients(self) -> int:
        return len(self.assigned_clients)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def net_utilization(self) -> float:
        """Ingress load as a multiple of capacity (>1 = saturated)."""
        return self.net_meter.rate(self.ctx.now) / self.net_capacity

    def cpu_utilization(self) -> float:
        """Compute load as a multiple of capacity (>1 = saturated)."""
        return self.cpu_meter.rate(self.ctx.now) / self.cpu_capacity

    def overloaded(self) -> bool:
        return (
            self.net_utilization() >= OVERLOAD_THRESHOLD
            or self.cpu_utilization() >= OVERLOAD_THRESHOLD
        )

    def drop_probability(self) -> float:
        """Probability an arriving request is dropped, from overload.

        Zero until either resource crosses the overload threshold; then
        rises linearly with the overload factor, saturating at 1.  With a
        threshold of 1.0, a 2x-overloaded replica drops about half its
        load — the qualitative behaviour of a saturated link/queue.
        """
        return _drop_probability(
            max(self.net_utilization(), self.cpu_utilization()),
            OVERLOAD_THRESHOLD,
        )

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def receive_flood(self, packets: float, source: str | None = None) -> None:
        """Absorb flood packets (spent bandwidth, filtered before app).

        Args:
            packets: flood mass landing now.
            source: optional attributed sender (the aggregate naive
                fleet passes its collective label); attributed mass
                shows up in :meth:`heavy_hitter_report`.
        """
        if self.state is ReplicaState.RETIRED:
            return  # null-routed: the attacker wasted these packets
        self.net_meter.add(self.ctx.now, packets)
        self.stats.flood_packets += packets
        whole = int(packets)
        if whole > 0:
            self.traffic.record(
                self.ctx.now, admitted=False, key=source, count=whole
            )

    def handle_request(self, client_id: str, work: float) -> float | None:
        """Process an application request arriving *now*.

        Args:
            client_id: requester identity (source IP in the paper).
            work: compute cost in work units (attack requests cost more).

        Returns:
            The service time if the request is served, ``None`` if it is
            refused or dropped; the caller schedules its own
            response-network latency.
        """
        if self.state is not _ACTIVE:
            return None
        now = self.ctx.sim.now
        self.net_meter.add(now, 1.0)
        positions = self.whitelist.get(client_id)
        if positions is None:
            self.stats.requests_rejected += 1
            self.traffic.record(now, admitted=False, key=client_id)
            return None
        trust = self.ctx.trust
        if trust is not None and trust.admit_decision(client_id) != "ok":
            # Tier gate (mirrors the live service's backends): a policy
            # rejection, not overload — no compute is spent, but the
            # request still lands in the traffic window so a gated
            # flood keeps registering as saturation, and the outcome
            # is a non-violation observation (the gate itself must not
            # spiral trust downward).
            self.stats.requests_gated += 1
            self.traffic.record(
                now, admitted=False, key=client_id, positions=positions
            )
            trust.observe(client_id, now, violation=False)
            return None
        drop = _drop_probability(
            max(
                self.net_meter.rate(now) / self.net_capacity,
                self.cpu_meter.rate(now) / self.cpu_capacity,
            ),
            OVERLOAD_THRESHOLD,
        )
        if self.ctx.rng.random() < drop:
            self.stats.requests_dropped += 1
            self.traffic.record(
                now, admitted=False, key=client_id, positions=positions
            )
            if trust is not None:
                # An overload drop is the violation signal: the client
                # (or its cohort) outran the replica's capacity.
                trust.observe(client_id, now, violation=True)
            return None
        self.traffic.record(
            now, admitted=True, key=client_id, positions=positions
        )
        if trust is not None:
            trust.observe(client_id, now, violation=False)
        self.cpu_meter.add(now, work)
        base = work / self.cpu_capacity
        # Service slows as the CPU saturates (simple M/M/1-flavoured
        # inflation, capped to keep the simulation stable).
        utilization = min(
            self.cpu_meter.rate(now) / self.cpu_capacity, 0.95
        )
        self.stats.requests_served += 1
        return base / max(1e-6, (1.0 - utilization))

    def heavy_hitter_report(self) -> HeavyHitterReport:
        """Who filled this replica's window (fixed-memory attribution).

        The coordinator traces these for attacked replicas (event kind
        ``heavy_hitters``), putting names next to the saturation signal
        in the audit trail.
        """
        now = self.ctx.now
        total, throttled = self.traffic.counts(now)
        return HeavyHitterReport(
            replica_id=self.endpoint.address,
            time=now,
            window=self.traffic.window,
            total=total,
            throttled=throttled,
            top=tuple(self.traffic.heavy_hitters(now)),
            state_bytes=self.traffic.state_bytes(),
        )

    # ------------------------------------------------------------------
    # shuffling support
    # ------------------------------------------------------------------
    def push_redirect(
        self,
        client_id: str,
        new_endpoint: Endpoint,
        deliver: Callable[[str, Endpoint], None],
        position: int,
    ) -> None:
        """Send one WebSocket redirect notification (Section VI-B).

        The prototype's server is single-threaded, so notifications go out
        serially: the ``position``-th client waits ``position`` service
        slots before its push even leaves the replica.  Redirection is
        prioritized traffic but still slows down under overload.
        """
        per_push = self.ctx.rng.uniform(
            REDIRECT_SERVICE_MIN, REDIRECT_SERVICE_MAX
        )
        overload_penalty = 1.0 + min(
            2.0, max(0.0, self.net_utilization() - 1.0)
        )
        send_delay = position * per_push * overload_penalty
        self.stats.redirects_sent += 1
        self.ctx.sim.schedule(
            send_delay,
            lambda: deliver(client_id, new_endpoint),
        )
