"""The live coordination server (paper Section III-D, over real sockets).

This is the online counterpart of :class:`repro.cloudsim.coordinator.
Coordinator`: the same detect → estimate → plan → shuffle → substitute
loop, but driven by wall-clock saturation signals from real asyncio TCP
backends instead of simulated load meters.

Control plane (UTF-8 lines on the coordinator's own port — the paper's
command-and-control channel, assumed unattackable)::

    C -> S:  JOIN <client_id>      authenticate + get an assignment
             WHERE <client_id>     re-query after MOVED/DENY
             SNAPSHOT              one-line JSON telemetry dump
    S -> C:  ASSIGN <client_id> <host>:<port> <replica_id>

Per sweep the coordinator polls the pool for saturated replicas.  What
it then believes and does — the estimator chain, the sticky belief,
endgame dispersion, when to quarantine — is
:class:`repro.core.policy.LivePolicy`, planning through a
:class:`repro.core.plan_cache.PlanCache` that computes each DP cell the
first time a round asks for it (a restarted coordinator computes its
restored population's cells in :meth:`ServiceCoordinator.start`,
before it serves); this module builds the
policy's :class:`~repro.core.policy.Observation` from the pool, opens
the round's spans and carries the decision out over sockets
(``docs/live-vs-sim.md`` tabulates the rules per driver).
"""

from __future__ import annotations

import asyncio
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.plan_cache import PlanCache
from ..core.policy import LivePolicy, Observation
from ..obs.events import Event
from ..obs.instruments import Instruments, resolve_instruments
from ..trust import TrustConfig, TrustManager, make_backend
from .backend import ReplicaBackend
from .config import ServiceConfig
from .pool import ReplicaPool

__all__ = ["LiveShuffleRecord", "ServiceCoordinator"]


@dataclass
class LiveShuffleRecord:
    """Audit record of one live shuffle operation."""

    started_at: float
    completed_at: float | None
    attacked_replicas: tuple[str, ...]
    n_clients: int
    n_attacked: int
    estimated_bots: int
    estimator: str
    group_sizes: tuple[int, ...]
    new_replicas: tuple[str, ...]
    algorithm: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "attacked_replicas": list(self.attacked_replicas),
            "n_clients": self.n_clients,
            "n_attacked": self.n_attacked,
            "estimated_bots": self.estimated_bots,
            "estimator": self.estimator,
            "group_sizes": list(self.group_sizes),
            "new_replicas": list(self.new_replicas),
            "algorithm": self.algorithm,
        }


class ServiceCoordinator:
    """Central controller of the live defense.

    Args:
        config: service tunables.
        max_shuffles: hard round cap (see :mod:`repro.service.budget`);
            ``None`` means uncapped.
        clock: monotonic time source shared with the pool.
        instruments: optional :class:`repro.obs.Instruments` (falls back
            to the installed process default).  Enables the span tree
            per shuffle round (estimate → plan → shuffle → substitute),
            the shuffle/detection counters, and the per-replica
            token-bucket series; the bundle is shared with the pool and
            every backend it spawns.
    """

    def __init__(
        self,
        config: ServiceConfig,
        max_shuffles: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        instruments: Instruments | None = None,
    ) -> None:
        self.config = config
        self.max_shuffles = max_shuffles
        self._clock = clock
        self.instruments = resolve_instruments(instruments)
        #: pluggable persistence behind bindings + profiles + belief;
        #: the memory backend keeps the historical in-process-only
        #: behaviour, sqlite/file survive a coordinator kill.
        self.state = make_backend(config.state_backend)
        self.trust: TrustManager | None = (
            TrustManager(
                TrustConfig(
                    seed=config.seed,
                    prior_strength=config.trust_prior_strength,
                ),
                storage=self.state,
                instruments=self.instruments,
            )
            if config.trust_enabled
            else None
        )
        self.pool = ReplicaPool(
            config,
            clock=clock,
            instruments=self.instruments,
            trust=self.trust,
        )
        self.plan_cache = PlanCache(
            n_replicas=config.n_replicas,
            client_grid=config.plan_client_grid,
            bot_grid=config.plan_bot_grid,
        )
        self._rng = np.random.default_rng(config.seed)
        #: exception that killed the detection loop, if any (see
        #: :meth:`_on_detect_done`); ``None`` while healthy.
        self.detect_error: BaseException | None = None
        self.assignments: dict[str, str] = {}
        self.shuffles: list[LiveShuffleRecord] = []
        #: the decision (estimate -> believe -> plan -> quarantine); this
        #: class builds its observations and carries its decisions out.
        self.policy = LivePolicy(
            planner=self.plan_cache,
            estimator="auto",
            instruments=self.instruments,
        )
        #: clients named by per-replica heavy-hitter reports as holding
        #: a dominant share of a saturated window (sketch detector
        #: only).  Its size lower-bounds the bot population and
        #: guards the quarantine decision in :meth:`_shuffle`.
        self.suspected_bots: set[str] = set()
        self.quarantine_replicas: set[str] = set()
        self.budget_exhausted = False
        self._calm_sweeps = 0
        self._pending_attacked: set[str] = set()
        self._pending_sweeps = 0
        #: the latest round that moved clients: its plan is the
        #: occupancy model while attacks stay inside its replicas.
        self._last_shuffle: LiveShuffleRecord | None = None
        #: shuffle rounds credited from a previous incarnation (state
        #: restored from a persistent backend); counted into
        #: :attr:`shuffles_completed` so the budget spans the restart.
        self._restored_shuffles = 0
        self.restored = False
        self._dirty_bindings: set[str] = set()
        self._belief_dirty = False
        self._shuffle_in_progress = False
        self._running = False
        self._detect_task: asyncio.Task | None = None
        self._control: asyncio.base_events.Server | None = None
        self.control_port: int | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Boot the pool, restore state, open the control channel."""
        await self.pool.start()
        await self._restore_state()
        # Rounds compute plan cells on first use; only a restored
        # population's cells are computed here, before serving begins.
        # event-loop-safe: no cells fresh, restored cells pre-serve
        self.plan_cache.precompute(len(self.assignments))
        self._control = await asyncio.start_server(
            self._handle_control, self.config.host, self.config.control_port
        )
        self.control_port = self._control.sockets[0].getsockname()[1]
        self._running = True
        self._started_at = self._clock()
        self._detect_task = asyncio.create_task(self._detect_loop())
        self._detect_task.add_done_callback(self._on_detect_done)

    def _on_detect_done(self, task: asyncio.Task) -> None:
        """Surface a crashed detection loop instead of swallowing it.

        Without this callback an exception inside the loop dies with
        the task object and the service keeps serving with detection
        silently off — the worst failure mode a moving-target defense
        can have.
        """
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self.detect_error = exc
        self._running = False
        if self.instruments is not None:
            self.instruments.registry.counter(
                "service_detect_loop_failures_total",
                "Detection loops that died with an exception.",
            ).inc()

    async def stop(self) -> None:
        self._running = False
        if self._detect_task is not None:
            self._detect_task.cancel()
            # gather(return_exceptions=True) so a loop that already
            # crashed (see detect_error) does not re-raise at shutdown.
            await asyncio.gather(
                self._detect_task, return_exceptions=True
            )
            self._detect_task = None
        if self._control is not None:
            self._control.close()
            await self._control.wait_closed()
            self._control = None
        await self.pool.stop()
        # event-loop-safe: final flush at shutdown, nothing left to stall
        self._persist_state()
        self.state.close()

    @property
    def control_address(self) -> tuple[str, int]:
        if self.control_port is None:
            raise RuntimeError("coordinator not started")
        return (self.config.host, self.control_port)

    @property
    def shuffles_completed(self) -> int:
        """Rounds executed, *including* rounds a restored predecessor
        ran against the same state backend — the shuffle budget is a
        property of the scenario, not of one process incarnation."""
        return len(self.shuffles) + self._restored_shuffles

    #: Consecutive calm detection sweeps (no actionable attack) before
    #: a non-empty quarantine counts as converged.
    CALM_SWEEPS = 10

    #: A reported heavy hitter becomes a *suspect* when its guaranteed
    #: (error-discounted) count holds at least this share of the
    #: saturated replica's window.  Bots flooding a replica each hold a
    #: large share of its window; a benign client on the same replica
    #: holds a sliver — 10% separates them with a wide margin at the
    #: configured bucket rates.
    SUSPECT_MIN_SHARE = 0.1

    @property
    def believed_bots(self) -> int | None:
        """The policy's sticky bot-count belief."""
        return self.policy.belief

    @property
    def quarantined(self) -> bool:
        """True once every attack is pinned inside the quarantine set.

        Requires a calm streak: bots still flood their quarantine
        replicas, but no replica outside the set has looked attacked
        for :data:`CALM_SWEEPS` consecutive sweeps.
        """
        return (
            bool(self.quarantine_replicas)
            and self._calm_sweeps >= self.CALM_SWEEPS
        )

    # ------------------------------------------------------------------
    # assignment (control plane)
    # ------------------------------------------------------------------
    def assign(self, client_id: str) -> ReplicaBackend:
        """Bind a client to a replica (least-loaded; sticky thereafter)."""
        replica_id = self.assignments.get(client_id)
        if replica_id is not None:
            backend = self.pool.get(replica_id)
            if backend is not None and backend.is_active:
                return backend
        active = self.pool.active()
        if not active:
            raise RuntimeError("no active replicas")
        backend = min(active, key=lambda b: b.n_clients)
        backend.admit(client_id)
        # Written from the control handler (here) and the shuffle path;
        # every read-modify-write completes without an intervening
        # await, so the single-threaded loop cannot interleave them.
        # reprolint: disable=P9
        self.assignments[client_id] = backend.replica_id
        # Same single-op argument as the assignment write above.
        # reprolint: disable=P9
        self._dirty_bindings.add(client_id)
        return backend

    # ------------------------------------------------------------------
    # state persistence (bindings + belief + trust profiles)
    # ------------------------------------------------------------------
    def _belief_document(self) -> dict[str, object]:
        return {
            "believed_bots": self.believed_bots,
            "shuffles_completed": self.shuffles_completed,
            "suspected_bots": sorted(self.suspected_bots),
            "quarantine_replicas": sorted(self.quarantine_replicas),
        }

    def _persist_state(self) -> None:
        """Flush dirty bindings, trust rows, and the belief document.

        Batched: one ``put_many`` per dirty namespace, called at most
        once per detection sweep, so the write volume is bounded by
        the population (and usually far below it).
        """
        if self._dirty_bindings:
            self.state.put_many(
                "bindings",
                [
                    (client_id, {"replica": self.assignments[client_id]})
                    for client_id in sorted(self._dirty_bindings)
                    if client_id in self.assignments
                ],
            )
            self._dirty_bindings.clear()
            self._belief_dirty = True
        if self.trust is not None:
            self.trust.persist()
        if self._belief_dirty:
            self.state.put("state", "belief", self._belief_document())
            self._belief_dirty = False
        self.state.flush()

    async def _restore_state(self) -> None:
        """Resume from a persistent backend's bindings/profiles/belief.

        Restored clients regroup onto the fresh pool: each old
        replica's cohort stays together — quarantined cohorts get a
        fresh replica that re-enters the quarantine set immediately,
        everyone else maps round-robin onto the base pool — so the
        separation the previous incarnation *paid shuffle rounds for*
        survives the restart instead of being re-learned.  The
        previous plan is not restored, so the first post-restart
        estimate falls back to the uniform-occupancy MLE.
        """
        if self.trust is not None:
            self.trust.restore()
        belief = self.state.get("state", "belief")
        if belief is not None:
            raw = belief.get("believed_bots")
            self.policy.belief = None if raw is None else int(raw)
            self._restored_shuffles = int(
                belief.get("shuffles_completed", 0)
            )
            # Startup-only write: runs in start(), before the detect
            # loop (the only other writer) is even created.
            # reprolint: disable=P9
            self.suspected_bots = {
                str(s) for s in belief.get("suspected_bots", [])
            }
        bindings = self.state.items("bindings")
        if not bindings:
            self.restored = belief is not None
            return
        self.restored = True
        old_quarantine = (
            {str(r) for r in belief.get("quarantine_replicas", [])}
            if belief is not None
            else set()
        )
        groups: dict[str, list[str]] = {}
        for client_id, doc in bindings:
            groups.setdefault(str(doc.get("replica", "")), []).append(
                client_id
            )
        base = self.pool.active()
        cursor = 0
        for old_id in sorted(groups):
            if old_id in old_quarantine:
                backend = await self.pool.spawn()
                # Startup-only write (see suspected_bots above).
                # reprolint: disable=P9
                self.quarantine_replicas.add(backend.replica_id)
            else:
                backend = base[cursor % len(base)]
                cursor += 1
            for client_id in groups[old_id]:
                backend.admit(client_id)
                self.assignments[client_id] = backend.replica_id
                self._dirty_bindings.add(client_id)
        self._belief_dirty = True
        # event-loop-safe: one-time startup write before serving begins
        self._persist_state()

    def _maybe_persist(self) -> None:
        """Write back state if anything changed since the last sweep."""
        if (
            self._dirty_bindings
            or self._belief_dirty
            or (self.trust is not None and self.trust.dirty)
        ):
            self._persist_state()

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                parts = line.decode("utf-8", "replace").split()
                if len(parts) == 2 and parts[0] in ("JOIN", "WHERE"):
                    backend = self.assign(parts[1])
                    host, port = backend.address
                    reply = (
                        f"ASSIGN {parts[1]} {host}:{port} "
                        f"{backend.replica_id}"
                    )
                elif parts == ["SNAPSHOT"]:
                    reply = json.dumps(self.snapshot())
                else:
                    reply = "ERR malformed"
                writer.write((reply + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # detection loop
    # ------------------------------------------------------------------
    async def _detect_loop(self) -> None:
        obs = self.instruments
        while self._running:
            await asyncio.sleep(self.config.detection_interval)
            if obs is not None:
                obs.registry.counter(
                    "service_detection_sweeps_total",
                    "Detection sweeps of the control loop.",
                ).inc()
            if self._shuffle_in_progress:
                continue
            # event-loop-safe: bounded batch write, at most once a sweep
            self._maybe_persist()
            # Quarantined replicas are expected to stay flooded — only
            # attacks outside the quarantine set are actionable.
            attacked_now = {
                b.replica_id for b in self.pool.attacked()
                if b.replica_id not in self.quarantine_replicas
            }
            if not attacked_now and not self._pending_attacked:
                self._calm_sweeps += 1
                continue
            self._calm_sweeps = 0
            # Confirmation: saturation monitors cross their thresholds
            # at slightly different moments; accumulate the attacked
            # union for a few sweeps so one shuffle (and one estimator
            # observation X) covers the whole co-saturating set.
            self._pending_attacked |= attacked_now
            self._pending_sweeps += 1
            if self._pending_sweeps <= self.config.detection_confirmations:
                continue
            # Evidence collection fires once per confirmation window,
            # keyed on the sweep *count* rather than each sweep's
            # wall-clock arrival: the report content is a property of
            # the confirmed attacked set, and sampling it exactly once
            # removes a scheduling-dependent source of run-to-run
            # variance (how many sweeps a window spanned used to decide
            # how many report events landed in the audit trail).
            self._collect_reports(self._pending_attacked)
            targets = [
                backend
                for replica_id in sorted(self._pending_attacked)
                if (backend := self.pool.get(replica_id)) is not None
                and backend.is_active
            ]
            self._pending_attacked.clear()
            self._pending_sweeps = 0
            if not targets:
                continue
            if (
                self.max_shuffles is not None
                and self.shuffles_completed >= self.max_shuffles
            ):
                self.budget_exhausted = True
                continue
            await self._shuffle(targets)

    def _collect_reports(self, attacked_ids: set[str]) -> None:
        """Harvest heavy-hitter evidence from saturated replicas.

        In sketch-detector mode every saturated replica can say *who*
        filled its window.  Each report rides the obs audit trail
        (kind ``heavy_hitters``, rendered by ``repro-obs summarize``),
        and talkers holding a dominant guaranteed share become
        suspects — each demonstrably sent attack-scale traffic, so
        the set's size is a hard lower bound on the bot population.
        The bound guards the quarantine decision in :meth:`_shuffle`:
        the coordinator refuses to write a subset off as all-bot
        while more bots are demonstrated than it believes exist.
        """
        obs = self.instruments
        for replica_id in sorted(attacked_ids):
            backend = self.pool.get(replica_id)
            if backend is None or not backend.is_active:
                continue
            if obs is not None and self.trust is not None:
                cohort = sorted(backend.whitelist)
                obs.events.append(Event(
                    time=self._clock(),
                    kind="trust_snapshot",
                    data={
                        "replica": replica_id,
                        "clients": len(cohort),
                        "tiers": self.trust.tier_counts(cohort),
                        "mean_trust": self.trust.mean_trust(cohort),
                    },
                    source="service",
                ))
            report = backend.heavy_hitter_report()
            if report is None:  # exact detector: no attribution
                continue
            if obs is not None:
                obs.events.append(report.to_event(source="service"))
            self.suspected_bots.update(
                report.suspects(self.SUSPECT_MIN_SHARE)
            )
        if obs is not None and self.trust is not None:
            gauge = obs.registry.gauge(
                "service_trust_tier_clients",
                "Whitelisted clients per trust tier (all replicas).",
                ("tier",),
            )
            for tier, count in self.trust.tier_counts(
                sorted(self.assignments)
            ).items():
                gauge.set(float(count), tier=tier)
        if obs is not None and self.suspected_bots:
            obs.registry.gauge(
                "service_suspected_bots",
                "Distinct clients named by heavy-hitter reports.",
            ).set(float(len(self.suspected_bots)))

    # ------------------------------------------------------------------
    # shuffle operation
    # ------------------------------------------------------------------
    async def _shuffle(self, attacked: list[ReplicaBackend]) -> None:
        self._shuffle_in_progress = True
        obs = self.instruments
        try:
            if obs is None:
                await self._shuffle_impl(attacked, None)
                return
            before = self.shuffles_completed
            with obs.spans.span(
                "shuffle_round", n_attacked=len(attacked)
            ) as span:
                await self._shuffle_impl(attacked, obs)
                span.set(completed=self.shuffles_completed > before)
            if self.shuffles_completed > before:
                record = self.shuffles[-1]
                obs.registry.counter(
                    "service_shuffle_rounds_total",
                    "Completed live shuffle rounds by estimator.",
                    ("estimator",),
                ).inc(estimator=record.estimator)
                completed_at = (
                    record.completed_at
                    if record.completed_at is not None
                    else record.started_at
                )
                obs.registry.histogram(
                    "service_shuffle_duration_seconds",
                    "Wall-clock duration of one live shuffle round.",
                    buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0),
                ).observe(completed_at - record.started_at)
            if self.believed_bots is not None:
                obs.registry.gauge(
                    "service_believed_bots",
                    "Coordinator's sticky bot-count belief.",
                ).set(float(self.believed_bots))
            obs.registry.gauge(
                "service_quarantine_replicas",
                "Replicas pinned in the quarantine set.",
            ).set(float(len(self.quarantine_replicas)))
        finally:
            self._shuffle_in_progress = False

    async def _shuffle_impl(
        self,
        attacked: list[ReplicaBackend],
        obs: Instruments | None,
    ) -> None:
        spans = obs.spans if obs is not None else None
        started = self._clock()
        attacked_ids = tuple(b.replica_id for b in attacked)
        # Canonical client order before the permutation below: the
        # shuffle must not depend on whitelist-set iteration history.
        clients = sorted(
            cid for b in attacked for cid in b.whitelist
        )
        n_clients = len(clients)
        policy = self.policy
        last = self._last_shuffle
        with (
            spans.span("estimate") if spans is not None else nullcontext()
        ) as span:
            seen = Observation(
                n_attacked=len(attacked_ids),
                n_replicas=max(self.pool.n_active, 1),
                n_clients=n_clients,
                plan_sizes=(
                    last.group_sizes
                    if last is not None
                    and set(attacked_ids) <= set(last.new_replicas)
                    else None
                ),
                expected_bots=(
                    None
                    if self.trust is None
                    else self.trust.low_trust_mass(clients)
                ),
                prior_strength=self.config.trust_prior_strength,
                demonstrated_bots=len(self.suspected_bots),
            )
            # event-loop-safe: closed-form estimators, sub-ms at pool scale
            policy.believe(seen)
            believed, estimator = policy.believed(n_clients), policy.method
            if span is not None:
                span.set(believed=believed, estimator=estimator)

        if n_clients == 0:
            # Flooded but empty replicas: substitute, nothing to plan.
            with (
                spans.span("substitute")
                if spans is not None
                else nullcontext()
            ):
                replacements = await self.pool.substitute(
                    list(attacked_ids)
                )
            self.shuffles.append(LiveShuffleRecord(
                started_at=started, completed_at=self._clock(),
                attacked_replicas=attacked_ids, n_clients=0,
                n_attacked=len(attacked_ids), estimated_bots=believed,
                estimator=estimator, group_sizes=(),
                new_replicas=tuple(
                    b.replica_id for b in replacements
                ),
            ))
            self._belief_dirty = True
            return

        with (
            spans.span("plan") if spans is not None else nullcontext()
        ) as span:
            # A PlanCache miss runs one DP cell inline: ~4 ms at the
            # default grid's largest cell (N = 800, P = 10), <= 0.4 ms
            # at N <= 200 (2.1 GHz Xeon).
            # event-loop-safe: a miss runs one DP cell, <= ~4 ms at P=10
            decision = policy.decide(n_clients, self.config.n_replicas)
            plan = decision.plan
            if span is not None:
                span.set(
                    algorithm=plan.algorithm,
                    expected_saved=plan.expected_saved,
                )
        self._belief_dirty = True
        if decision.action == "quarantine":
            # Leave the bots flooding these replicas and keep watching
            # the rest.
            self.quarantine_replicas.update(attacked_ids)
        if decision.action != "shuffle":
            return

        with (
            spans.span("shuffle") if spans is not None else nullcontext()
        ):
            # Replicas whose planned group is empty are never booted,
            # and only the attacked instances retire, so the pool grows
            # elastically during an attack (clean replicas accumulate
            # saved clients) — the paper's scale-out-under-attack
            # behaviour.
            sizes = plan.nonempty_sizes()
            replacements = [await self.pool.spawn() for _ in sizes]
            order = [
                clients[i] for i in self._rng.permutation(n_clients)
            ]
            cursor = 0
            for backend, size in zip(replacements, sizes):
                for _ in range(size):
                    client_id = order[cursor]
                    cursor += 1
                    backend.admit(client_id)
                    self.assignments[client_id] = backend.replica_id
                    self._dirty_bindings.add(client_id)
            assert cursor == n_clients, "plan sizes must cover every client"
        # Old instances close only after every client is rebound, so
        # a MOVED straggler always finds its new home via WHERE.
        with (
            spans.span("substitute")
            if spans is not None
            else nullcontext()
        ):
            for replica_id in attacked_ids:
                await self.pool.retire(replica_id)

        record = LiveShuffleRecord(
            started_at=started, completed_at=self._clock(),
            attacked_replicas=attacked_ids, n_clients=n_clients,
            n_attacked=len(attacked_ids), estimated_bots=believed,
            estimator=estimator, group_sizes=plan.group_sizes,
            new_replicas=tuple(b.replica_id for b in replacements),
            algorithm=plan.algorithm,
        )
        self.shuffles.append(record)
        self._last_shuffle = record

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """JSON-ready state dump (served on SNAPSHOT and /metrics)."""
        now = self._clock()
        return {
            "uptime": (
                now - self._started_at if self._started_at is not None
                else 0.0
            ),
            "n_active": self.pool.n_active,
            "n_assignments": len(self.assignments),
            "attacked": [b.replica_id for b in self.pool.attacked()],
            "shuffles_completed": self.shuffles_completed,
            "max_shuffles": self.max_shuffles,
            "budget_exhausted": self.budget_exhausted,
            "believed_bots": self.believed_bots,
            "detector": self.config.detector,
            "state_backend": self.config.state_backend,
            "restored": self.restored,
            "restored_shuffles": self._restored_shuffles,
            "trust": (
                None if self.trust is None else self.trust.snapshot()
            ),
            "suspected_bots": sorted(self.suspected_bots),
            "quarantined": self.quarantined,
            "quarantine_replicas": sorted(self.quarantine_replicas),
            "plan_cache": {
                "cells": self.plan_cache.cells,
                "hits": self.plan_cache.hits,
                "fallbacks": self.plan_cache.fallbacks,
            },
            "replicas": self.pool.snapshot(),
            "shuffles": [record.to_dict() for record in self.shuffles],
        }
