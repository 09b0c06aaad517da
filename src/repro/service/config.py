"""Configuration for the live shuffling defense service.

One frozen dataclass carries every tunable of the online control loop,
mirroring how :class:`repro.cloudsim.system.CloudConfig` configures the
DES — the two are deliberately parallel so a live run and a simulated
run can be parameterized from the same story (see
``docs/live-vs-sim.md``).  Times here are *wall-clock seconds*: unlike
the simulator layers, the service is the one part of the tree where
real time is the clock.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceConfig", "DEFAULT_SEED"]

#: Default seed for every service-side stochastic decision (shuffle
#: permutations).  Client/bot behaviour seeds live in the load
#: generator's own config.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the live defense service.

    Attributes:
        host: interface the replica pool and control server bind to.
        n_replicas: shuffling replica pool size ``P`` (kept constant:
            every retired replica is substituted by a fresh one).
        control_port: TCP port for the assignment proxy (0 = ephemeral).
        telemetry_port: TCP port for the JSON metrics endpoint
            (0 = ephemeral; ``None`` disables the endpoint).
        bucket_rate: per-replica token refill rate (requests/second) —
            the replica's service capacity.
        bucket_burst: token-bucket burst capacity (requests).
        saturation_window: sliding-window length (seconds) over which
            each replica measures its throttle ratio.
        overload_ratio: throttled fraction of the window at which a
            replica reports itself attacked.
        min_window_events: minimum requests in the window before the
            saturation signal may fire (keeps idle replicas quiet).
        detection_interval: coordinator sweep period (seconds) between
            attacked-replica polls — the paper's detection loop.
        detection_confirmations: extra sweeps the coordinator keeps
            accumulating newly saturated replicas before acting.  The
            monitors cross their thresholds at slightly different
            moments; shuffling on the first sighting would spend a
            round on a partial (and estimator-skewing) observation.
        plan_client_grid: client counts of the
            :class:`repro.core.plan_cache.PlanCache` lookup table's
            cells (each computed the first time a round asks for it).
        plan_bot_grid: bot counts of the plan cache's cells.
        detector: saturation-monitor backend — ``"exact"`` keeps the
            per-event sliding deque; ``"sketch"`` swaps in the
            fixed-memory :class:`repro.detect.SketchWindow`, which also
            tracks per-client heavy hitters for the coordinator's
            confirmation sweep.
        sketch_epsilon: sketch additive-error budget ε (sketch mode).
        sketch_top_k: heavy-hitter summary capacity per replica.
        trust_enabled: enable per-client trust profiles and the
            graduated TRUSTED→WATCH→THROTTLED→DENIED admission ladder
            (:mod:`repro.trust`).  Off by default: the disabled path
            is byte-identical to the pre-trust service.
        trust_prior_strength: weight of the trust-derived log-prior
            of the live posterior over the bot count (0 disables the
            prior even with trust enabled).
        state_backend: persistence spec for bindings + profiles +
            belief — ``"memory"`` (default, process-local),
            ``"sqlite:PATH"`` or ``"file:PATH"`` (survive a
            coordinator kill-and-restart; see ``docs/trust.md``).
        seed: RNG seed for the coordinator's shuffle permutations
            (also the base seed of the trust layer's per-client heal
            jitter).
    """

    host: str = "127.0.0.1"
    n_replicas: int = 10
    control_port: int = 0
    telemetry_port: int | None = 0
    bucket_rate: float = 80.0
    bucket_burst: float = 40.0
    saturation_window: float = 0.5
    overload_ratio: float = 0.3
    min_window_events: int = 20
    detection_interval: float = 0.1
    detection_confirmations: int = 3
    plan_client_grid: tuple[int, ...] = (25, 50, 100, 200, 400, 800)
    plan_bot_grid: tuple[int, ...] = (2, 5, 10, 20, 40, 80, 160)
    detector: str = "exact"
    sketch_epsilon: float = 0.02
    sketch_top_k: int = 8
    trust_enabled: bool = False
    trust_prior_strength: float = 1.0
    state_backend: str = "memory"
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.bucket_rate <= 0 or self.bucket_burst <= 0:
            raise ValueError("token bucket rate and burst must be > 0")
        if not 0.0 < self.overload_ratio <= 1.0:
            raise ValueError("overload_ratio must be within (0, 1]")
        if self.detection_interval <= 0:
            raise ValueError("detection_interval must be > 0")
        if self.detection_confirmations < 0:
            raise ValueError("detection_confirmations must be >= 0")
        if self.saturation_window <= 0:
            raise ValueError("saturation_window must be > 0")
        if self.detector not in ("exact", "sketch"):
            raise ValueError("detector must be 'exact' or 'sketch'")
        if not 0.0 < self.sketch_epsilon < 1.0:
            raise ValueError("sketch_epsilon must be within (0, 1)")
        if self.sketch_top_k < 1:
            raise ValueError("sketch_top_k must be >= 1")
        if self.trust_prior_strength < 0:
            raise ValueError("trust_prior_strength must be >= 0")
        kind = self.state_backend.partition(":")[0]
        if kind not in ("memory", "sqlite", "file") or (
            kind != "memory" and not self.state_backend.partition(":")[2]
        ):
            raise ValueError(
                "state_backend must be 'memory', 'sqlite:PATH', or "
                f"'file:PATH' (got {self.state_backend!r})"
            )
