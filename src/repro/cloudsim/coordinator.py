"""The coordination server (paper Section III-D).

The coordinator is the defense's central controller: it tracks global
client-to-server bindings, monitors which replicas are under attack, and —
when attacks are detected — executes the moving-target reaction:

1. instantiate fresh replica servers at new network locations,
2. run the shuffle planner (greedy + attack-scale estimation) to decide
   *how many* clients each replacement replica receives,
3. have the attacked replicas push WebSocket redirects to their clients
   (prioritized over application logic), and
4. retire and recycle the attacked replicas once migration completes.

It communicates over a command-and-control channel that clients cannot
reach, so it is not itself attackable in this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.policy import Observation, ShufflePolicy
from .network import Endpoint
from .replica import ReplicaServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import CloudContext

__all__ = ["ShuffleRecord", "Coordinator"]


@dataclass
class ShuffleRecord:
    """Audit record of one shuffle operation."""

    started_at: float
    completed_at: float | None
    attacked_replicas: tuple[str, ...]
    n_clients: int
    estimated_bots: int
    group_sizes: tuple[int, ...]
    new_replicas: tuple[str, ...]


class Coordinator:
    """Central controller driving detection and shuffling."""

    def __init__(self, ctx: "CloudContext") -> None:
        self.ctx = ctx
        self.shuffles: list[ShuffleRecord] = []
        # The moment estimator keeps the control loop cheap; see
        # repro.core.estimator for the exact MLE.
        self.policy = ShufflePolicy(planner="greedy", estimator="moment")
        self._shuffle_in_progress = False
        self._monitoring = False
        self._replica_counter = 0
        # Hot spares (Section III-C): pre-booted replicas kept out of the
        # load balancers until a shuffle claims them, eliminating the
        # boot delay from the critical path.
        self._spares: list[ReplicaServer] = []

    # ------------------------------------------------------------------
    # hot spares
    # ------------------------------------------------------------------
    def provision_spares(self, count: int) -> None:
        """Pre-boot ``count`` spare replicas for instant substitution."""
        for index in range(count):
            domain = self.ctx.domains[index % len(self.ctx.domains)]
            replica = self._spare_replica(domain)
            self._spares.append(replica)

    def _spare_replica(self, domain: str) -> ReplicaServer:
        cfg = self.ctx.config
        self._replica_counter += 1
        endpoint = Endpoint(
            domain=domain, address=f"replica-{self._replica_counter}"
        )
        replica = ReplicaServer(
            self.ctx,
            endpoint,
            net_capacity=cfg.replica_net_capacity,
            cpu_capacity=cfg.replica_cpu_capacity,
        )
        # Spares boot in the background but stay *hidden*: they are only
        # registered with a load balancer when a shuffle claims them, so
        # their addresses remain unadvertised.
        self.ctx.sim.schedule(cfg.boot_delay, replica.activate)
        self.ctx.register_hidden_replica(replica)
        return replica

    def _claim_spare(self) -> ReplicaServer | None:
        """Take one booted spare off the shelf, if available."""
        for index, replica in enumerate(self._spares):
            if replica.is_active:
                claimed = self._spares.pop(index)
                balancer = self.ctx.balancers.get(
                    claimed.endpoint.domain
                )
                if balancer is not None:
                    balancer.register_replica(claimed)
                return claimed
        return None

    @property
    def spare_count(self) -> int:
        return len(self._spares)

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------
    def new_replica(self, domain: str, boot_delay: float | None = None,
                    activate_now: bool = False) -> ReplicaServer:
        """Instantiate a replica at a fresh, unadvertised address."""
        cfg = self.ctx.config
        self._replica_counter += 1
        endpoint = Endpoint(
            domain=domain, address=f"replica-{self._replica_counter}"
        )
        replica = ReplicaServer(
            self.ctx,
            endpoint,
            net_capacity=cfg.replica_net_capacity,
            cpu_capacity=cfg.replica_cpu_capacity,
        )
        self.ctx.register_replica(replica)
        if activate_now:
            replica.activate()
        else:
            delay = boot_delay if boot_delay is not None else cfg.boot_delay
            self.ctx.sim.schedule(delay, replica.activate)
        return replica

    # ------------------------------------------------------------------
    # detection loop
    # ------------------------------------------------------------------
    def start_monitoring(self) -> None:
        """Begin the periodic attack-detection sweep."""
        if self._monitoring:
            return
        self._monitoring = True
        self.ctx.sim.schedule(
            self.ctx.config.detection_interval, self._sweep
        )

    def stop_monitoring(self) -> None:
        self._monitoring = False

    def attacked_replicas(self) -> list[ReplicaServer]:
        """Replicas whose load indicators exceed the overload threshold.

        This is the paper's observable attack signal: sudden congestion
        (ingress meter) or an application-traffic surge (CPU meter).
        """
        return [
            replica
            for replica in self.ctx.active_replicas()
            if replica.overloaded()
        ]

    def _sweep(self) -> None:
        if not self._monitoring:
            return
        self._heal()
        if not self._shuffle_in_progress:
            attacked = self.attacked_replicas()
            if attacked:
                self._start_shuffle(attacked)
        self.ctx.sim.schedule(
            self.ctx.config.detection_interval, self._sweep
        )

    def _heal(self) -> None:
        """Restore per-domain capacity after unplanned replica failures.

        Crashed instances leave the balancer with fewer replicas than the
        configured baseline; the coordinator boots replacements.  Planned
        retirements are not healed here — the shuffle that caused them
        already provisioned substitutes.
        """
        baseline = self.ctx.config.initial_replicas_per_domain
        # Canonical domain/address order: replacement boots and
        # scale-down retirements must not depend on mapping history.
        for domain, balancer in sorted(self.ctx.balancers.items()):
            live = [
                replica
                for _, replica in sorted(balancer.replicas.items())
                if replica.state.value in ("active", "booting")
            ]
            for _ in range(max(0, baseline - len(live))):
                self.new_replica(domain)
            if self._shuffle_in_progress:
                continue
            # Scale back down when over baseline (paper: "scale down to a
            # small number of server instances when not under attack"):
            # retire idle, client-free, unattacked extras.
            excess = len(live) - baseline
            for replica in live:
                if excess <= 0:
                    break
                if (
                    replica.is_active
                    and replica.n_clients == 0
                    and not replica.overloaded()
                    and not replica.shuffling
                ):
                    self.ctx.retire_replica(replica)
                    excess -= 1

    # ------------------------------------------------------------------
    # shuffle operation
    # ------------------------------------------------------------------
    def _start_shuffle(self, attacked: list[ReplicaServer]) -> None:
        """Plan and launch one shuffle of the attacked replicas' clients."""
        cfg = self.ctx.config
        self._shuffle_in_progress = True
        self.ctx.trace(
            "attack_detected",
            replicas=[r.endpoint.address for r in attacked],
        )
        # Put names next to the signal: each attacked replica reports
        # who filled its window (fixed-memory sketch attribution).
        for replica in attacked:
            self.ctx.trace(
                "heavy_hitters", **replica.heavy_hitter_report().to_dict()
            )
        if self.ctx.trust is not None:
            # And the trust ladder's view of each attacked cohort: how
            # many of its whitelisted clients sit in which tier.
            for replica in attacked:
                cohort = sorted(replica.whitelist)
                self.ctx.trace(
                    "trust_snapshot",
                    replica=replica.endpoint.address,
                    clients=len(cohort),
                    tiers=self.ctx.trust.tier_counts(cohort),
                    mean_trust=self.ctx.trust.mean_trust(cohort),
                )

        clients: list[tuple[str, object, ReplicaServer]] = []
        for replica in attacked:
            replica.shuffling = True
            # Canonical client order before the rng.shuffle below: the
            # permutation consumed must not depend on admission history.
            for client_id, client in sorted(
                replica.assigned_clients.items()
            ):
                clients.append((client_id, client, replica))
        n_clients = len(clients)

        # Attack-scale estimation from the observable signal: how many of
        # the currently active replicas are attacked, given the current
        # client spread (Section V).
        self.policy.believe(
            Observation(
                n_attacked=len(attacked),
                n_replicas=max(len(self.ctx.active_replicas()), 1),
                n_clients=n_clients,
            )
        )
        believed_bots = self.policy.believed(n_clients)

        record = ShuffleRecord(
            started_at=self.ctx.now,
            completed_at=None,
            attacked_replicas=tuple(
                r.endpoint.address for r in attacked
            ),
            n_clients=n_clients,
            estimated_bots=believed_bots,
            group_sizes=(),
            new_replicas=(),
        )
        self.shuffles.append(record)

        if n_clients == 0:
            # Nothing to migrate: just replace the attacked instances.
            self._finish_shuffle(attacked, [], record)
            return

        n_new = min(cfg.shuffle_replicas, n_clients)
        sizes = self.policy.decide(n_clients, n_new).plan.group_sizes
        record.group_sizes = sizes

        # Claim pre-booted hot spares first (Section III-C), then boot
        # whatever is still missing, spread across domains so no single
        # bottleneck link carries the whole shuffle set.
        new_replicas: list[ReplicaServer] = []
        while len(new_replicas) < n_new:
            spare = self._claim_spare()
            if spare is None:
                break
            new_replicas.append(spare)
        booted = 0
        domains = self.ctx.domains
        while len(new_replicas) < n_new:
            new_replicas.append(
                self.new_replica(domains[booted % len(domains)])
            )
            booted += 1
        record.new_replicas = tuple(
            r.endpoint.address for r in new_replicas
        )
        self.ctx.trace(
            "shuffle_started",
            n_clients=n_clients,
            estimated_bots=believed_bots,
            group_sizes=list(sizes),
            spares_used=n_new - booted,
            new_replicas=list(record.new_replicas),
        )

        # Migration can start as soon as every replacement is up: spares
        # are ready immediately, freshly booted instances need the delay.
        wait = cfg.boot_delay + 1e-3 if booted else 1e-3
        self.ctx.sim.schedule(
            wait,
            lambda: self._migrate(clients, sizes, new_replicas,
                                  attacked, record),
        )

    def _migrate(
        self,
        clients: list[tuple[str, object, ReplicaServer]],
        sizes: tuple[int, ...],
        new_replicas: list[ReplicaServer],
        attacked: list[ReplicaServer],
        record: ShuffleRecord,
    ) -> None:
        """Randomly partition clients per the plan and push redirects."""
        order = list(clients)
        self.ctx.rng.shuffle(order)

        # Per-old-replica serialization position: the single-threaded
        # redirect pipeline of Section VI-B.
        positions: dict[str, int] = {}
        cursor = 0
        for replica, size in zip(new_replicas, sizes):
            for _ in range(size):
                client_id, client, old_replica = order[cursor]
                cursor += 1
                replica.admit(client_id, client)
                self.ctx.record_binding(client_id, replica)
                position = positions.get(old_replica.endpoint.address, 0)
                positions[old_replica.endpoint.address] = position + 1
                old_replica.push_redirect(
                    client_id,
                    replica.endpoint,
                    deliver=self._deliver_redirect_factory(client),
                    position=position,
                )
        assert cursor == len(order), "plan sizes must cover every client"

        grace = self.ctx.config.migration_grace
        self.ctx.sim.schedule(
            grace,
            lambda: self._finish_shuffle(attacked, new_replicas, record),
        )

    def _deliver_redirect_factory(self, client):
        """Wrap client redirect delivery with client-side network latency."""

        def deliver(client_id: str, new_endpoint: Endpoint) -> None:
            one_way = self.ctx.latency.one_way(
                new_endpoint, client.endpoint, self.ctx.rng
            )
            self.ctx.sim.schedule(
                one_way,
                lambda: client.receive_redirect(new_endpoint),
            )

        return deliver

    def _finish_shuffle(
        self,
        attacked: list[ReplicaServer],
        new_replicas: list[ReplicaServer],
        record: ShuffleRecord,
    ) -> None:
        """Retire the attacked replicas and close the operation."""
        for replica in attacked:
            self.ctx.retire_replica(replica)
            self.ctx.trace(
                "replica_retired", address=replica.endpoint.address
            )
        record.completed_at = self.ctx.now
        self.ctx.trace(
            "shuffle_completed",
            duration=record.completed_at - record.started_at,
            n_clients=record.n_clients,
        )
        obs = self.ctx.instruments
        if obs is not None:
            obs.registry.counter(
                "cloudsim_shuffles_total",
                "Completed shuffle operations.",
            ).inc()
            obs.registry.histogram(
                "cloudsim_shuffle_duration_seconds",
                "Sim-time duration of a shuffle from start to last "
                "retirement.",
                buckets=(1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0),
            ).observe(record.completed_at - record.started_at)
            obs.registry.gauge(
                "cloudsim_active_replicas",
                "Replicas serving clients after the shuffle.",
            ).set(float(len(self.ctx.active_replicas())))
        self._shuffle_in_progress = False
        # Replenish the hot-spare shelf for the next round.
        deficit = self.ctx.config.hot_spares - self.spare_count
        if deficit > 0:
            self.provision_spares(deficit)

    @property
    def shuffle_count(self) -> int:
        return len(self.shuffles)
