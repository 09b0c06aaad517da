"""Wiring: the full Section III architecture as one simulated system.

:class:`CloudDefenseSystem` assembles DNS, per-domain load balancers,
replica servers, the coordination server, the botnet, and the client
population into a single discrete-event run, and reports both defense-side
(shuffles, replicas recycled, attacker quarantine) and client-side (QoS
timeline) outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..detect import SpaceSaving
from ..obs.events import EventLog
from ..obs.instruments import Instruments
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder
from ..trust import TrustConfig, TrustManager
from .botnet import Botnet
from .clients import BenignClient, OnOffBot, PersistentBot
from .coordinator import Coordinator
from .dns import DnsServer
from .engine import Simulator
from .loadbalancer import LoadBalancer
from .metrics import MetricsCollector
from .network import Endpoint, LatencyModel
from .replica import ReplicaServer

__all__ = ["CloudConfig", "CloudContext", "CloudDefenseSystem", "RunReport"]


@dataclass
class CloudConfig:
    """All tunables of the cloud simulation in one place.

    Defaults model a medium web service protected across two cloud domains;
    every value is per the paper's qualitative description (no proprietary
    constants exist to copy).
    """

    # topology
    n_domains: int = 2
    balancers_per_domain: int = 1
    initial_replicas_per_domain: int = 2
    # replica capacity
    replica_net_capacity: float = 5_000.0  # packets/s ingress
    replica_cpu_capacity: float = 200.0  # work units/s
    load_half_life: float = 2.0
    overload_threshold: float = 1.0
    # defense reaction
    shuffle_replicas: int = 8  # P: replacement replicas per shuffle
    hot_spares: int = 0  # pre-booted spare replicas (Section III-C)
    boot_delay: float = 3.0  # cloud instance spin-up
    detection_interval: float = 1.0
    migration_grace: float = 5.0  # old replicas linger for stragglers
    redirect_service_min: float = 0.02  # per-client WS push service time
    redirect_service_max: float = 0.06
    assignment_memory: float = 300.0  # sticky re-entry window (Sec. VII)
    join_retry_delay: float = 1.0
    # sketch-based traffic accounting (repro.detect): every replica
    # tracks who is filling its window in fixed memory, independent of
    # population size — the piece that keeps million-client runs flat.
    detect_window: float = 4.0  # sliding window (sim-seconds)
    detect_epsilon: float = 0.02  # count-min additive error budget
    detect_delta: float = 0.01  # count-min failure probability
    detect_top_k: int = 8  # heavy-hitter summary capacity
    detect_epochs: int = 4  # window ring cells
    # per-client trust profiles (repro.trust): graduated admission
    # ladder mirrored from the live service; off by default so the
    # historical simulation dynamics are untouched.
    trust_enabled: bool = False
    # workload
    think_time: float = 2.0  # mean seconds between benign requests
    request_work: float = 1.0
    attack_work: float = 25.0  # computational-attack request cost
    attack_think_time: float = 0.2  # computational bots hammer much faster
    reveal_delay: float = 1.0  # persistent bot: assignment -> reveal
    naive_pps: float = 30_000.0  # aggregate naive-bot flood
    botnet_propagation_delay: float = 2.0
    metrics_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.n_domains < 1:
            raise ValueError("need at least one cloud domain")
        if self.balancers_per_domain < 1:
            raise ValueError("need at least one balancer per domain")
        if self.shuffle_replicas < 1:
            raise ValueError("need at least one shuffle replica")
        if self.detect_window <= 0:
            raise ValueError("detect_window must be > 0")
        if self.detect_top_k < 1 or self.detect_epochs < 1:
            raise ValueError("detect_top_k and detect_epochs must be >= 1")


class CloudContext:
    """Shared context handed to every simulated component."""

    def __init__(self, config: CloudConfig, seed: int = 0) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        self.latency = LatencyModel()
        self.dns = DnsServer()
        self.domains = [f"cloud-{i}" for i in range(config.n_domains)]
        # Primary balancer per domain; co-domain frontends share its
        # directory and live in ``domain_balancers``.
        self.balancers: dict[str, LoadBalancer] = {}
        self.domain_balancers: dict[str, list[LoadBalancer]] = {}
        self._replicas: dict[str, ReplicaServer] = {}
        #: shared trust ladder (sim-time clocked) when enabled; the
        #: replicas gate whitelisted requests through it exactly like
        #: the live service's backends.
        self.trust: TrustManager | None = (
            TrustManager(TrustConfig(seed=seed))
            if config.trust_enabled
            else None
        )
        self.coordinator = Coordinator(self)
        self.metrics = MetricsCollector(self, config.metrics_interval)
        self.tracer = None
        self.instruments: Instruments | None = None

    def attach_tracer(self, tracer) -> None:
        """Enable structured event tracing into a :class:`repro.obs.
        EventLog`."""
        self.tracer = tracer

    def attach_instruments(
        self, instruments: Instruments | None = None
    ) -> Instruments:
        """Enable the unified observability layer on this context.

        With no argument, builds an :class:`repro.obs.Instruments`
        bundle whose span recorder runs on **sim-time** (``ctx.now``),
        so spans and events line up with the DES timeline and no
        wall-clock enters the simulation (reprolint P4).  Every
        :meth:`trace` call then also increments the
        ``cloudsim_events_total`` counter, and the coordinator records
        shuffle metrics.
        """
        if instruments is None:
            instruments = Instruments(
                registry=MetricsRegistry(),
                spans=SpanRecorder(clock=lambda: self.sim.now),
                events=EventLog(source="cloudsim"),
            )
        self.instruments = instruments
        return instruments

    def trace(self, kind: str, **data) -> None:
        """Emit a trace event; a no-op unless a tracer (or the
        instruments bundle) is attached."""
        if self.tracer is not None:
            self.tracer.emit(self.now, kind, **data)
        if self.instruments is not None:
            self.instruments.events.emit(self.now, kind, **data)
            self.instruments.registry.counter(
                "cloudsim_events_total",
                "Structured simulation events by kind.",
                ("kind",),
            ).inc(kind=kind)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # replica registry
    # ------------------------------------------------------------------
    def register_replica(self, replica: ReplicaServer) -> None:
        self._replicas[replica.endpoint.address] = replica
        balancer = self.balancers.get(replica.endpoint.domain)
        if balancer is not None:
            balancer.register_replica(replica)

    def register_hidden_replica(self, replica: ReplicaServer) -> None:
        """Track a replica without advertising it to any load balancer.

        Used for hot spares: their addresses stay unpublished until a
        shuffle claims them.
        """
        self._replicas[replica.endpoint.address] = replica

    def retire_replica(self, replica: ReplicaServer) -> None:
        replica.retire()
        balancer = self.balancers.get(replica.endpoint.domain)
        if balancer is not None:
            balancer.deregister_replica(replica.endpoint.address)

    def fail_replica(self, replica: ReplicaServer) -> None:
        """Crash a replica (fault injection); see cloudsim.faults."""
        replica.fail()
        balancer = self.balancers.get(replica.endpoint.domain)
        if balancer is not None:
            balancer.deregister_replica(replica.endpoint.address)

    def replica_by_address(self, address: str) -> ReplicaServer | None:
        return self._replicas.get(address)

    def replica_at(self, endpoint: Endpoint) -> ReplicaServer | None:
        return self._replicas.get(endpoint.address)

    def active_replicas(self) -> list[ReplicaServer]:
        """Active replicas in canonical (address-sorted) order, so the
        detection sweep and shuffle planning see a history-independent
        replica sequence."""
        return [
            r for _, r in sorted(self._replicas.items()) if r.is_active
        ]

    def all_replicas(self) -> list[ReplicaServer]:
        return list(self._replicas.values())

    def record_binding(self, client_id: str, replica: ReplicaServer) -> None:
        """Refresh sticky-session memory after a shuffle re-binding."""
        for _, balancer in sorted(self.balancers.items()):
            if client_id in balancer.assignments:
                balancer.record_shuffle_assignment(client_id, replica)


@dataclass
class RunReport:
    """Outcome of one end-to-end cloud simulation."""

    duration: float
    shuffles: int
    replicas_recycled: int
    benign_success_overall: float
    benign_success_last_quarter: float
    benign_mean_latency: float
    benign_migrations: float
    naive_waste_ratio: float
    quarantined_bots: int
    bots_colocated_benign: int
    samples: list = field(default_factory=list)
    #: merged top talkers across active replicas at run end, as
    #: ``[key, count, error]`` rows (sketch-windowed, so only traffic
    #: still inside the detection window shows up).
    heavy_hitters: list = field(default_factory=list)
    #: trust-tier census over every profiled client at run end
    #: (``None`` when the trust ladder is disabled).
    trust_tiers: dict | None = None

    def describe(self) -> str:
        return (
            f"RunReport(duration={self.duration:.0f}s "
            f"shuffles={self.shuffles} "
            f"recycled={self.replicas_recycled} "
            f"benign_ok={self.benign_success_overall:.1%} "
            f"benign_ok_tail={self.benign_success_last_quarter:.1%} "
            f"naive_waste={self.naive_waste_ratio:.1%})"
        )


class CloudDefenseSystem:
    """Facade: build the architecture, admit a population, run, report."""

    def __init__(self, config: CloudConfig | None = None, seed: int = 0) -> None:
        self.config = config or CloudConfig()
        self.ctx = CloudContext(self.config, seed=seed)
        self.botnet = Botnet(
            self.ctx,
            naive_pps=self.config.naive_pps,
            propagation_delay=self.config.botnet_propagation_delay,
        )
        self.benign: list[BenignClient] = []
        self.bots: list[PersistentBot] = []
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Stand up DNS, load balancers, and the initial replica set."""
        if self._built:
            return
        ctx = self.ctx
        for domain in ctx.domains:
            frontends = []
            directory = None
            for index in range(self.config.balancers_per_domain):
                balancer = LoadBalancer(
                    ctx, domain, index=index, directory=directory
                )
                directory = balancer.directory  # shared by the rest
                frontends.append(balancer)
                ctx.dns.register(balancer)
            ctx.balancers[domain] = frontends[0]
            ctx.domain_balancers[domain] = frontends
        for domain in ctx.domains:
            for _ in range(self.config.initial_replicas_per_domain):
                ctx.coordinator.new_replica(domain, activate_now=True)
        if self.config.hot_spares > 0:
            ctx.coordinator.provision_spares(self.config.hot_spares)
        ctx.coordinator.start_monitoring()
        ctx.metrics.start()
        self.botnet.start()
        self._built = True

    def add_benign_clients(self, count: int, prefix: str = "user") -> None:
        """Create benign clients that join at randomized times."""
        self.build()
        for index in range(count):
            client = BenignClient(self.ctx, f"{prefix}-{index}")
            self.benign.append(client)
            self._schedule_join(client)

    def add_persistent_bots(
        self,
        count: int,
        computational: bool = False,
        on_off: bool = False,
        off_duration: float = 30.0,
        prefix: str = "bot",
    ) -> None:
        """Create persistent bots (optionally computational or on-off)."""
        self.build()
        for index in range(count):
            client_id = f"{prefix}-{index}"
            if on_off:
                bot: PersistentBot = OnOffBot(
                    self.ctx, client_id, self.botnet,
                    off_duration=off_duration,
                )
            else:
                bot = PersistentBot(
                    self.ctx, client_id, self.botnet,
                    computational=computational,
                )
            self.bots.append(bot)
            self._schedule_join(bot)

    def _schedule_join(self, client: BenignClient) -> None:
        delay = float(self.ctx.rng.uniform(0.0, 2.0))
        self.ctx.sim.schedule(delay, client.join)

    def enable_churn(
        self,
        arrival_rate: float,
        mean_session: float = 120.0,
    ) -> None:
        """Benign client churn: Poisson arrivals, exponential sessions.

        The paper's simulations include ongoing benign arrivals (Section
        VI-A); in the architecture simulation churn additionally exercises
        the load balancers' sticky-session memory and the whitelists'
        admit/evict cycle.

        Args:
            arrival_rate: mean new benign clients per second.
            mean_session: mean session length before a client leaves.
        """
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.build()
        tick = 1.0
        counter = [0]

        def arrivals() -> None:
            count = int(self.ctx.rng.poisson(arrival_rate * tick))
            for _ in range(count):
                counter[0] += 1
                client = BenignClient(
                    self.ctx, f"churn-{counter[0]}"
                )
                self.benign.append(client)
                client.join()
                session = float(self.ctx.rng.exponential(mean_session))
                self.ctx.sim.schedule(session, client.leave)
            self.ctx.sim.schedule(tick, arrivals)

        self.ctx.sim.schedule(tick, arrivals)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, duration: float, max_events: int = 5_000_000) -> RunReport:
        """Advance the simulation ``duration`` seconds and summarize."""
        self.build()
        self.ctx.sim.run_until(self.ctx.sim.now + duration,
                               max_events=max_events)
        return self.report(duration)

    def report(self, duration: float) -> RunReport:
        """Aggregate defense- and client-side outcomes."""
        ctx = self.ctx
        metrics = ctx.metrics
        recycled = sum(
            1 for r in ctx.all_replicas() if not r.is_active and
            r.state.value == "retired"
        )
        migrations = (
            float(np.mean([c.stats.migrations for c in self.benign]))
            if self.benign
            else 0.0
        )
        latencies = [
            c.stats.mean_latency for c in self.benign
            if c.stats.requests_ok > 0
        ]
        # Quarantine census: where do persistent bots sit right now, and
        # how many benign clients share a replica with at least one bot?
        bot_replicas: set[str] = set()
        for bot in self.bots:
            if bot.replica_endpoint is not None:
                bot_replicas.add(bot.replica_endpoint.address)
        colocated = sum(
            1 for c in self.benign
            if c.replica_endpoint is not None
            and c.replica_endpoint.address in bot_replicas
        )
        # System-wide top talkers: the per-replica space-saving
        # summaries merge shard-order-independently.
        active = ctx.active_replicas()
        if active:
            merged = SpaceSaving.merge_all(
                [r.traffic.hitter_summary(ctx.now) for r in active]
            )
            hitters = [h.to_list() for h in merged.top()]
        else:
            hitters = []
        return RunReport(
            duration=duration,
            shuffles=ctx.coordinator.shuffle_count,
            replicas_recycled=recycled,
            benign_success_overall=metrics.benign_success_ratio(),
            benign_success_last_quarter=metrics.success_ratio_between(
                ctx.now - duration / 4, ctx.now
            ),
            benign_mean_latency=(
                float(np.mean(latencies)) if latencies else 0.0
            ),
            benign_migrations=migrations,
            naive_waste_ratio=self.botnet.waste_ratio,
            quarantined_bots=len(self.bots),
            bots_colocated_benign=colocated,
            samples=list(metrics.samples),
            heavy_hitters=hitters,
            trust_tiers=(
                None if ctx.trust is None else ctx.trust.tier_counts()
            ),
        )
