"""Metric catalogue: every name the benchmark prints, with unit and bound.

``BENCHMARK.json`` at the repo root restates :data:`CONTRACT_END_TO_END`
and :data:`CONTRACT_PER_LAYER` for the external driver; the self-tests
keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CONTRACT_END_TO_END",
    "CONTRACT_PER_LAYER",
    "END_TO_END",
    "METRICS",
    "Metric",
    "PER_LAYER",
]


@dataclass(frozen=True)
class Metric:
    """One named measurement.

    ``bound``/``abs_bound`` say how far the median may worsen before
    ``compare`` calls it a regression: the larger of ``bound`` × the
    base median and ``abs_bound``.  Per-layer metrics carry neither,
    nor does ``host_speed``, which describes the machine and not the
    program.
    """

    name: str
    unit: str
    better: str
    bound: float = 0.0
    abs_bound: float = 0.0

    @property
    def layer(self) -> str:
        if self.name in _END_TO_END_NAMES:
            return "end_to_end"
        return self.name.rpartition(".")[0]

    def allowed(self, base: float) -> float:
        return max(self.bound * abs(base), self.abs_bound)


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, 0.1),
    Metric("work_per_ref_s", "1/s", "higher", 0.25),
    Metric("requests_per_s", "1/s", "higher", 0.25),
    Metric("benign_p50_ms", "ms", "lower", 0.15),
    Metric("benign_p99_ms", "ms", "lower", 0.40),
    Metric("benign_ok_fraction", "ratio", "higher", 0.0, 0.03),
    Metric("time_to_quarantine_s", "s", "lower", 0.10),
    Metric("shuffles_to_quarantine", "rounds", "lower", 0.0, 2.0),
    Metric("shuffle_round_p50_ms", "ms", "lower", 0.15),
    Metric("benign_clean_fraction", "ratio", "higher", 0.0, 0.03),
    Metric("rounds_per_s", "1/s", "higher", 0.25),
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("host_speed", "ratio", "higher"),
)
_END_TO_END_NAMES = frozenset(m.name for m in END_TO_END)

#: What ``BENCHMARK.json`` lists.  The external driver wants one fixed
#: set from every workload and accepts a metric only if ten runs of the
#: same code agree on it within its bound, on a host whose speed
#: swings further than that.  So the two timings here are in the
#: reference seconds of :mod:`.hostclock` (``work_per_ref_s`` is
#: ``requests_per_s`` / ``rounds_per_s`` / ``events_per_s`` with the
#: host's speed divided out); the rest of :data:`END_TO_END` is in
#: wall seconds, workload-specific, and lives in the ledger only.
CONTRACT_END_TO_END = ("setup_s", "work_per_ref_s", "peak_rss_mb")


def _layer(prefix: str, *specs: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(
        Metric(f"{prefix}.{name}", unit, better)
        for name, unit, better in specs
    )


PER_LAYER: tuple[Metric, ...] = (
    *_layer(
        "service.backend",
        ("served", "count", "higher"),
        ("throttled", "count", "lower"),
        ("denied", "count", "lower"),
        ("moved", "count", "lower"),
        ("useful_ratio", "ratio", "higher"),
    ),
    *_layer(
        "service.tokens",
        ("acquire_calls", "count", "lower"),
        ("acquire_busy_s", "s", "lower"),
        ("record_calls", "count", "lower"),
        ("record_busy_s", "s", "lower"),
        ("saturated_busy_s", "s", "lower"),
    ),
    *_layer(
        "detect",
        ("record_calls", "count", "lower"),
        ("record_busy_s", "s", "lower"),
        ("heavy_hitters_busy_s", "s", "lower"),
        ("state_bytes", "bytes", "lower"),
    ),
    *_layer(
        "trust",
        ("admit_calls", "count", "lower"),
        ("admit_busy_s", "s", "lower"),
        ("observe_calls", "count", "lower"),
        ("observe_busy_s", "s", "lower"),
        ("persist_busy_s", "s", "lower"),
        ("persist_rows", "count", "lower"),
    ),
    *_layer(
        "trust.storage",
        ("flush_calls", "count", "lower"),
        ("flush_busy_s", "s", "lower"),
        ("put_busy_s", "s", "lower"),
        ("put_rows", "count", "lower"),
    ),
    *_layer(
        "service.coordinator",
        ("assign_calls", "count", "lower"),
        ("assign_busy_s", "s", "lower"),
        ("sweeps", "count", "lower"),
        ("rounds", "count", "lower"),
        ("round_busy_s", "s", "lower"),
        ("estimate_busy_s", "s", "lower"),
        ("plan_busy_s", "s", "lower"),
        ("migrate_busy_s", "s", "lower"),
        ("substitute_busy_s", "s", "lower"),
        ("detect_wait_s", "s", "lower"),
    ),
    *_layer(
        "service.pool",
        ("spawn_calls", "count", "lower"),
        ("spawn_busy_s", "s", "lower"),
        ("retire_calls", "count", "lower"),
        ("retire_busy_s", "s", "lower"),
    ),
    *_layer(
        "core",
        ("estimate_calls", "count", "lower"),
        ("estimate_busy_s", "s", "lower"),
        ("plan_calls", "count", "lower"),
        ("plan_busy_s", "s", "lower"),
        ("plan_cache_precompute_s", "s", "lower"),
        ("plan_cache_hit_ratio", "ratio", "higher"),
    ),
    *_layer("sim", ("rounds", "count", "lower"), ("self_s", "s", "lower")),
    *_layer(
        "cloudsim",
        ("events", "count", "lower"),
        ("shuffles", "count", "lower"),
        ("self_s", "s", "lower"),
    ),
    Metric("service.wire_self_s", "s", "lower"),
    *_layer(
        "loadgen",
        ("stall_total_s", "s", "lower"),
        ("stall_max_ms", "ms", "lower"),
    ),
    *_layer(
        "obs",
        ("traced_work_per_ref_s", "1/s", "higher"),
        ("trace_overhead_ratio", "ratio", "higher"),
    ),
)

#: Per-layer metrics one traced run can produce on its own.  The
#: overhead ratio needs the untraced pass too, so only the full run
#: (both passes) reports it.
CONTRACT_PER_LAYER = tuple(
    m.name for m in PER_LAYER if m.name != "obs.trace_overhead_ratio"
)

METRICS: dict[str, Metric] = {m.name: m for m in (*END_TO_END, *PER_LAYER)}
