"""The six workloads: inputs, measurement, correctness gate.

Each workload is one function ``(seed, seconds, tracer, scratch, host)
-> RunResult`` run in a fresh process.  ``seed`` makes the load (client
pacing, bot placement, simulator draws); the service's own seed stays
at its default.  ``tracer`` is ``None`` in the untraced pass, which
yields the end-to-end metrics; with a tracer the same run yields the
per-layer metrics and is checked for reconciliation.  ``host`` is the
open :class:`~.hostclock.HostClock`: ``setup_s`` and ``work_per_ref_s``
are in its reference seconds, everything else in wall seconds.

``seconds`` is the measuring window of the two ``steady_*`` workloads
and the simulated horizon of ``cloudsim_attack`` (3.75 simulated
seconds per wall second asked for, run three times).  The ``attack_*`` workloads and
``sim_mle_scale`` run a fixed input to completion — quarantine, or the
saving target — because their headline numbers are per-episode
quantities.

All live workloads are closed loop: each benign client waits for its
reply before sending the next request; flood bots pipeline.  Service
and load generator share one asyncio thread, so client count is a
dimension of the per-client defense, not parallelism.
"""

from __future__ import annotations

import asyncio
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro import sim
from repro.cloudsim import CloudConfig, CloudDefenseSystem
from repro.obs.instruments import Instruments, set_default_instruments
from repro.service.budget import shuffle_budget
from repro.service.config import ServiceConfig
from repro.service.coordinator import ServiceCoordinator
from repro.service.loadgen import LoadConfig

from .hostclock import HostClock
from .loadgen import RecordingLoadGenerator
from .stats import median, percentile
from .tracing import Tracer, reconcile, span_totals

__all__ = ["RunResult", "WORKLOADS", "Workload"]

#: Set-ups timed per run; the median is reported.
SETUP_REPEATS = 15
#: Seconds an attack episode keeps running after quarantine.
SETTLE = 2.0
#: Hard cap on an attack episode that never quarantines.
EPISODE_CAP = 60.0
#: Simulated seconds per wall second asked of ``cloudsim_attack``.
CLOUDSIM_HORIZON_PER_SECOND = 3.75
#: Simulated seconds per timed slice of a ``cloudsim_attack`` run.
CLOUDSIM_SLICE = 5.0
#: Same-seed runs of ``cloudsim_attack``; each slice keeps its median.
CLOUDSIM_REPEATS = 3
#: ``sim_mle_scale`` round counts, bit-for-bit properties of the seed.
SIM_ROUNDS = {
    0: 325, 1: 323, 2: 321, 3: 327, 4: 325, 5: 325,
    6: 325, 7: 323, 8: 323, 9: 323, 10: 325,
}

Values = dict[str, tuple[float, int]]


@dataclass
class RunResult:
    """What one run of one workload measured.

    ``values`` maps metric name to ``(value, sample count)``;
    ``problems`` lists every failed correctness or reconciliation
    check (empty = outputs correct).
    """

    values: Values = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _setup_ref_s(host: HostClock, setups: list[float], since: float) -> float:
    """Median set-up in reference seconds.  One set-up is shorter than
    the gap between two laps, so the caller takes a lap before each,
    this takes one after the last, and all set-ups share the speed of
    the stretch that began at ``since``."""
    host.sample()
    return median(setups) * host.speed(since, time.perf_counter())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _core_layer(totals: dict[str, tuple[int, float]]) -> Values:
    estimate_calls, estimate_busy = totals["core_estimate"]
    plan_calls, plan_busy = totals["core_plan"]
    return {
        "core.estimate_calls": (estimate_calls, estimate_calls),
        "core.estimate_busy_s": (estimate_busy, estimate_calls),
        "core.plan_calls": (plan_calls, plan_calls),
        "core.plan_busy_s": (plan_busy, plan_calls),
    }


def _span_nesting(
    totals: dict[str, tuple[int, float]], stages: tuple[str, ...]
) -> list[tuple[str, float, str, float]]:
    """Parent/child rows of one shuffle round's span tree."""

    def busy(name: str) -> float:
        return totals[name][1]

    return [
        ("core_estimate", busy("core_estimate"), "estimate", busy("estimate")),
        ("core_plan", busy("core_plan"), "plan", busy("plan")),
        (
            "+".join(stages),
            sum(busy(stage) for stage in stages),
            "shuffle_round",
            busy("shuffle_round"),
        ),
    ]


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Live:
    """Inputs of one live workload."""

    service: dict[str, Any]
    load: dict[str, Any]
    attack: bool
    #: sqlite state backend (a fresh file per set-up) instead of memory
    durable: bool = False
    #: the loop idles between timers: tail latency and the few-ms
    #: shuffle rounds are host jitter there, so neither is reported
    idle_loop: bool = False


def _steady(guarded: bool) -> _Live:
    return _Live(
        service=dict(
            n_replicas=10,
            bucket_rate=1e9,
            bucket_burst=1e9,
            detector="sketch" if guarded else "exact",
            trust_enabled=guarded,
        ),
        load=dict(n_benign=20, n_bots=0, benign_rps=1e6),
        attack=False,
        durable=guarded,
    )


_LIVE = {
    "steady_plain": _steady(guarded=False),
    "steady_guarded": _steady(guarded=True),
    "attack_paced": _Live(
        service={},
        load=dict(n_benign=200, n_bots=20, benign_rps=2.0),
        attack=True,
        idle_loop=True,
    ),
    "attack_flood": _Live(
        service=dict(detector="sketch"),
        load=dict(
            n_benign=200, n_bots=20, benign_rps=2.0, bot_profile="flood"
        ),
        attack=True,
    ),
}


def _misbound(coordinator: ServiceCoordinator) -> list[str]:
    """Clients not whitelisted on exactly the one active replica they
    are assigned to."""
    homes: dict[str, list[str]] = {}
    for backend in coordinator.pool.active():
        for client_id in backend.whitelist:
            homes.setdefault(client_id, []).append(backend.replica_id)
    return [
        f"{client_id} assigned to {replica_id} but whitelisted on "
        f"{homes.get(client_id, [])}"
        for client_id, replica_id in coordinator.assignments.items()
        if homes.get(client_id) != [replica_id]
    ]


def _clean_fraction(
    coordinator: ServiceCoordinator, load: RecordingLoadGenerator
) -> float:
    dirty = {
        coordinator.assignments[bot_id]
        for bot_id in load.bot_ids
        if bot_id in coordinator.assignments
    }
    clean = sum(
        1 for client_id in load.benign_ids
        if coordinator.assignments.get(client_id) not in dirty
    )
    return clean / len(load.benign_ids)


async def _live(
    spec: _Live,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    scratch: Path,
    host: HostClock,
) -> RunResult:
    # A short sampling window ends the run within 0.1 s of its cue.
    load_config = LoadConfig(seed=seed, window=0.1, **spec.load)
    budget = (
        shuffle_budget(
            load_config.n_benign,
            load_config.n_bots,
            spec.service.get("n_replicas", ServiceConfig.n_replicas),
        )
        if spec.attack
        else None
    )
    setups = []
    setup_since = time.perf_counter()
    for index in range(SETUP_REPEATS):
        host.sample()
        instruments = (
            None if tracer is None else Instruments.create(source="service")
        )
        config = ServiceConfig(
            telemetry_port=None,
            state_backend=(
                f"sqlite:{scratch / f'state-{index}.db'}"
                if spec.durable
                else "memory"
            ),
            **spec.service,
        )
        started = time.perf_counter()
        coordinator = ServiceCoordinator(
            config, max_shuffles=budget, instruments=instruments
        )
        await coordinator.start()
        setups.append(time.perf_counter() - started)
        if index < SETUP_REPEATS - 1:
            await coordinator.stop()
    setup_s = _setup_ref_s(host, setups, setup_since)
    precompute_s = 0.0
    if tracer is not None:
        precompute = tracer.slot("core.plan_cache_precompute")
        precompute_s = precompute.busy / precompute.calls
        tracer.clear()  # from here the slots cover the load phase only
    load = RecordingLoadGenerator(
        load_config,
        config.host,
        coordinator.control_port,
        probe=lambda: (
            coordinator.shuffles_completed
            if coordinator.quarantined
            else None
        ),
    )
    try:
        started = time.perf_counter()
        if spec.attack:
            await load.run(
                EPISODE_CAP,
                until=lambda: load.quarantined_after is not None
                or coordinator.budget_exhausted,
                settle=SETTLE,
            )
        else:
            await load.run(seconds)
        wall = time.perf_counter() - started
        return _live_result(
            spec, coordinator, load, budget, setup_s, wall,
            tracer, instruments, precompute_s, host,
        )
    finally:
        await coordinator.stop()


def _live_result(
    spec: _Live,
    coordinator: ServiceCoordinator,
    load: RecordingLoadGenerator,
    budget: int | None,
    setup_s: float,
    wall: float,
    tracer: Tracer | None,
    instruments: Instruments | None,
    precompute_s: float,
    host: HostClock,
) -> RunResult:
    result = RunResult()
    problems = result.problems
    latencies_ms = [latency * 1e3 for latency in load.latencies]
    n = len(latencies_ms)
    stretches = load.reply_stretches()
    rate = median(
        [replies / (until - since) for since, until, replies in stretches]
    )
    # Pacing and detection timers run by the wall clock, so with the
    # loop idle a wall second is a reference second.
    ref_rate = rate if spec.idle_loop else median([
        replies / host.seconds(since, until)
        for since, until, replies in stretches
    ])
    values: Values = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "work_per_ref_s": (ref_rate, len(stretches)),
        "requests_per_s": (rate, len(stretches)),
        "benign_p50_ms": (median(latencies_ms), n),
        "benign_ok_fraction": (
            load.total_ok / load.total_sent, load.total_sent
        ),
        "wall_s": (wall, 1),
    }
    p99 = percentile(latencies_ms, 99.0)
    if not spec.idle_loop and p99 is not None:
        values["benign_p99_ms"] = (p99, n)
    time_to_quarantine = 0.0
    if coordinator.detect_error is not None:
        problems.append(f"detect loop died: {coordinator.detect_error!r}")
    if spec.attack:
        # Under attack requests are refused by design (that is what
        # benign_ok_fraction measures); the operation that must not
        # fail is leaving every client bound to one live replica.
        misbound = _misbound(coordinator)
        result.attempted = len(coordinator.assignments)
        result.failed = len(misbound)
        problems += misbound[:5]
        if load.quarantined_after is None:
            problems.append("never quarantined")
        else:
            time_to_quarantine = (
                load.quarantined_after - load.config.bot_start_delay
            )
            values["time_to_quarantine_s"] = (time_to_quarantine, 1)
            values["shuffles_to_quarantine"] = (
                load.quarantine_shuffles, 1
            )
        if coordinator.budget_exhausted:
            problems.append("shuffle budget exhausted")
        if budget is not None and coordinator.shuffles_completed > budget:
            problems.append(
                f"{coordinator.shuffles_completed} shuffles over the "
                f"budget of {budget}"
            )
        rounds_ms = [
            (record.completed_at - record.started_at) * 1e3
            for record in coordinator.shuffles
            if record.completed_at is not None
        ]
        if rounds_ms and not spec.idle_loop:
            values["shuffle_round_p50_ms"] = (
                median(rounds_ms), len(rounds_ms)
            )
        values["benign_clean_fraction"] = (
            _clean_fraction(coordinator, load), len(load.benign_ids)
        )
    else:
        # No bots and unlimited buckets: every reply must be OK and
        # the control loop must never act.
        result.attempted = load.total_sent
        result.failed = load.total_sent - load.total_ok
        if result.failed:
            problems.append(f"{result.failed} benign requests failed")
        if coordinator.shuffles_completed:
            problems.append(
                f"{coordinator.shuffles_completed} shuffles without bots"
            )
    if tracer is not None and instruments is not None:
        values.update(
            _live_layers(
                coordinator, load, tracer, instruments, wall,
                time_to_quarantine, precompute_s, problems,
            )
        )
        values["obs.traced_work_per_ref_s"] = values["work_per_ref_s"]
    values["peak_rss_mb"] = (_peak_rss_mb(), 1)
    result.values = values
    return result


def _live_layers(
    coordinator: ServiceCoordinator,
    load: RecordingLoadGenerator,
    tracer: Tracer,
    instruments: Instruments,
    wall: float,
    time_to_quarantine: float,
    precompute_s: float,
    problems: list[str],
) -> Values:
    values: Values = {}
    pool = coordinator.pool
    backends = [*pool.backends.values(), *pool.retired.values()]
    replies = 0
    for outcome in ("served", "throttled", "denied", "moved"):
        count = sum(getattr(b.stats, outcome) for b in backends)
        values[f"service.backend.{outcome}"] = (count, count)
        replies += count
    served = values["service.backend.served"][0]
    values["service.backend.useful_ratio"] = (
        served / replies if replies else 0.0, replies
    )
    values.update(tracer.metrics())
    for name in ("trust.persist", "trust.storage.put"):
        slot = tracer.slot(name)
        values[f"{name}_rows"] = (slot.rows, slot.calls)
    values["detect.state_bytes"] = (
        sum(
            b.monitor.state_bytes()
            for b in pool.active()
            if hasattr(b.monitor, "state_bytes")
        ),
        pool.n_active,
    )
    totals = span_totals(instruments.spans.spans)
    rounds, round_busy = totals["shuffle_round"]
    values["service.coordinator.rounds"] = (rounds, rounds)
    values["service.coordinator.round_busy_s"] = (round_busy, rounds)
    for metric, span in (
        ("estimate", "estimate"),
        ("plan", "plan"),
        ("migrate", "shuffle"),
        ("substitute", "substitute"),
    ):
        count, busy = totals[span]
        values[f"service.coordinator.{metric}_busy_s"] = (busy, count)
    sweeps = int(
        instruments.registry.counter(
            "service_detection_sweeps_total",
            "Detection sweeps of the control loop.",
        ).value()
    )
    values["service.coordinator.sweeps"] = (sweeps, sweeps)
    values["service.coordinator.detect_wait_s"] = (
        max(0.0, time_to_quarantine - round_busy), 1
    )
    values.update(_core_layer(totals))
    values["core.plan_cache_precompute_s"] = (precompute_s, SETUP_REPEATS)
    cache = coordinator.plan_cache
    lookups = cache.hits + cache.fallbacks
    values["core.plan_cache_hit_ratio"] = (
        cache.hits / lookups if lookups else 0.0, lookups
    )
    # The estimate and plan stages are synchronous and call no wrapped
    # method, so with the wrappers' self times they partition the wall.
    parts = tracer.self_times()
    parts["service.coordinator.estimate"] = totals["estimate"][1]
    parts["service.coordinator.plan"] = totals["plan"][1]
    values["service.wire_self_s"] = (wall - sum(parts.values()), 1)
    values["loadgen.stall_total_s"] = (load.stall_total, 1)
    values["loadgen.stall_max_ms"] = (load.stall_max * 1e3, 1)

    def busy(name: str) -> float:
        return tracer.slot(name).busy

    def stage(name: str) -> float:
        return totals[name][1]

    problems += reconcile(
        wall,
        parts,
        [
            *_span_nesting(
                totals, ("estimate", "plan", "shuffle", "substitute")
            ),
            (
                "detect.record", busy("detect.record"),
                "service.tokens.record", busy("service.tokens.record"),
            ),
            (
                "service.pool.spawn", busy("service.pool.spawn"),
                "migrate+substitute", stage("shuffle") + stage("substitute"),
            ),
            (
                "service.pool.retire", busy("service.pool.retire"),
                "substitute", stage("substitute"),
            ),
        ],
    )
    return values


# ----------------------------------------------------------------------
# offline workloads
# ----------------------------------------------------------------------
_SIM_SCENARIO = sim.ShuffleScenario(
    benign=50_000,
    bots=100_000,
    n_replicas=1_000,
    target_fraction=0.8,
    estimator="mle",
    preload_bots=True,
)


def _sim_mle_scale(
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    scratch: Path,
    host: HostClock,
) -> RunResult:
    del seconds, scratch  # fixed input, nothing on disk
    # Set-up is what a caller pays before the first paper-scale round:
    # a small pass (1/100 of the clients on 1/10 of the replicas)
    # through the same estimator and planner, which fills whatever the
    # kernels build lazily.
    warmup = replace(_SIM_SCENARIO, benign=500, bots=1_000, n_replicas=100)
    setups = []
    setup_since = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        host.sample()
        started = time.perf_counter()
        sim.run_scenario(warmup, repetitions=1, seed=seed)
        setups.append(time.perf_counter() - started)
    setup_s = _setup_ref_s(host, setups, setup_since)
    instruments = (
        None
        if tracer is None
        else Instruments.create(clock=time.perf_counter, source="sim")
    )
    previous = set_default_instruments(instruments)
    try:
        started = time.perf_counter()
        outcome = sim.run_scenario(_SIM_SCENARIO, repetitions=1, seed=seed)
        ended = time.perf_counter()
    finally:
        set_default_instruments(previous)
    wall = ended - started
    run = outcome.runs[0]
    rounds = run.n_shuffles
    ref_rate = rounds / host.seconds(started, ended)
    result = RunResult(attempted=rounds)
    if not run.reached_target:
        result.failed = 1
        result.problems.append(
            f"saved {run.saved_fraction:.3f} of benign, target "
            f"{_SIM_SCENARIO.target_fraction}"
        )
    pinned = SIM_ROUNDS.get(seed)
    if pinned is not None and rounds != pinned:
        result.problems.append(
            f"{rounds} rounds for seed {seed}, pinned at {pinned}"
        )
    result.values = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "work_per_ref_s": (ref_rate, rounds),
        "rounds_per_s": (rounds / wall, rounds),
        "wall_s": (wall, 1),
    }
    if instruments is not None:
        totals = span_totals(instruments.spans.spans)
        layers = _core_layer(totals)
        parts = {
            "core.estimate": layers["core.estimate_busy_s"][0],
            "core.plan": layers["core.plan_busy_s"][0],
        }
        traced_rounds, round_busy = totals["shuffle_round"]
        layers["sim.rounds"] = (traced_rounds, traced_rounds)
        layers["sim.self_s"] = (wall - sum(parts.values()), 1)
        layers["obs.traced_work_per_ref_s"] = (ref_rate, rounds)
        result.values.update(layers)
        result.problems += reconcile(
            wall,
            parts,
            [
                *_span_nesting(totals, ("estimate", "plan", "shuffle")),
                ("shuffle_round", round_busy, "wall", wall),
            ],
        )
    result.values["peak_rss_mb"] = (_peak_rss_mb(), 1)
    return result


def _cloudsim_system(seed: int) -> CloudDefenseSystem:
    system = CloudDefenseSystem(CloudConfig(), seed=seed)
    system.add_benign_clients(5_000)
    system.add_persistent_bots(200)
    return system


def _cloudsim_attack(
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    scratch: Path,
    host: HostClock,
) -> RunResult:
    del scratch
    slices = max(
        1, round(CLOUDSIM_HORIZON_PER_SECOND * seconds / CLOUDSIM_SLICE)
    )
    setups = []
    setup_since = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        host.sample()
        started = time.perf_counter()
        system = _cloudsim_system(seed)
        setups.append(time.perf_counter() - started)
    setup_s = _setup_ref_s(host, setups, setup_since)
    instruments = (
        None
        if tracer is None
        else Instruments.create(clock=time.perf_counter, source="cloudsim")
    )
    # The same seed several times over: every repeat must replay the
    # first event for event, so each slice's identical work is timed
    # CLOUDSIM_REPEATS times and the median shrugs off a host stall.
    events, shuffles = [], []
    slice_walls: list[list[float]] = [[] for _ in range(slices)]
    slice_refs: list[list[float]] = [[] for _ in range(slices)]
    systems = [system] + [
        _cloudsim_system(seed) for _ in range(CLOUDSIM_REPEATS - 1)
    ]
    previous = set_default_instruments(instruments)
    try:
        run_started = time.perf_counter()
        for system in systems:
            for walls, refs in zip(slice_walls, slice_refs):
                started = time.perf_counter()
                report = system.run(CLOUDSIM_SLICE)
                ended = time.perf_counter()
                walls.append(ended - started)
                refs.append(host.seconds(started, ended))
            events.append(system.ctx.sim.events_processed)
            shuffles.append(report.shuffles)
        elapsed = time.perf_counter() - run_started
    finally:
        set_default_instruments(previous)
    wall = sum(median(walls) for walls in slice_walls)
    ref_rate = events[0] / sum(median(refs) for refs in slice_refs)
    result = RunResult(attempted=sum(events))
    if len(set(events)) != 1:
        result.failed = max(events) - min(events)
        result.problems.append(
            f"seed {seed} replayed as {events} events, not one count"
        )
    result.values = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "work_per_ref_s": (ref_rate, CLOUDSIM_REPEATS),
        "events_per_s": (events[0] / wall, CLOUDSIM_REPEATS),
        "wall_s": (wall, CLOUDSIM_REPEATS),
    }
    if tracer is not None and instruments is not None:
        totals = span_totals(instruments.spans.spans)
        layers = _core_layer(totals)
        layers.update(tracer.metrics())
        parts = tracer.self_times()
        parts["core.estimate"] = layers["core.estimate_busy_s"][0]
        parts["core.plan"] = layers["core.plan_busy_s"][0]
        # Busy times cover every repeat, so they reconcile with the
        # whole elapsed time, not with one run's median wall.
        layers["cloudsim.events"] = (sum(events), len(events))
        layers["cloudsim.shuffles"] = (sum(shuffles), len(shuffles))
        layers["cloudsim.self_s"] = (elapsed - sum(parts.values()), 1)
        layers["obs.traced_work_per_ref_s"] = (ref_rate, CLOUDSIM_REPEATS)
        result.values.update(layers)
        result.problems += reconcile(elapsed, parts, [])
    result.values["peak_rss_mb"] = (_peak_rss_mb(), 1)
    return result


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, float, Tracer | None, Path, HostClock], RunResult]


def _live_workload(name: str, why: str) -> Workload:
    def run(
        seed: int,
        seconds: float,
        tracer: Tracer | None,
        scratch: Path,
        host: HostClock,
    ) -> RunResult:
        return asyncio.run(
            _live(_LIVE[name], seed, seconds, tracer, scratch, host)
        )

    return Workload(name, why, run)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _live_workload(
            "steady_plain",
            "Bare data plane (wire, backend, tokens): 20 unpaced benign "
            "clients, exact monitor, no bots; bypasses detect, trust, "
            "core and the control loop.",
        ),
        _live_workload(
            "steady_guarded",
            "The same traffic through the sketch detector, trust "
            "admit/observe and sqlite state flushes on the hot path.",
        ),
        _live_workload(
            "attack_paced",
            "The paper's loop with the CPU idle: 200 paced benign + 20 "
            "burst bots to quarantine; detection timers dominate, so "
            "kernel and data-plane changes must not move it.",
        ),
        _live_workload(
            "attack_flood",
            "The same loop with the event loop saturated by 20 unpaced "
            "flood bots: the reject path of backend/tokens, and shuffle "
            "rounds that queue behind traffic.",
        ),
        Workload(
            "sim_mle_scale",
            "Paper-scale Monte-Carlo run (50k benign, 100k bots, 1000 "
            "replicas, MLE) where core's estimator and planner do the "
            "work; no sockets.",
            _sim_mle_scale,
        ),
        Workload(
            "cloudsim_attack",
            "The DES substrate and its own coordinator: 5000 benign + 200 "
            "persistent bots, run three times per seed and replayed event "
            "for event.",
            _cloudsim_attack,
        ),
    )
}
