"""Per-layer tracing from outside the program.

The traced pass wraps the public methods of each layer with timing
wrappers (class attributes, restored afterwards) and reads the spans
the program already records through its ``instruments=`` argument.
Nothing under ``src/`` changes.

Synchronous wrappers keep a call stack, so a wrapped call nested in
another (``SketchSaturationMonitor.record`` → ``SketchWindow.record``)
is charged to the inner layer's *self* time only once; those self
times partition the event loop's wall time and are what reconciliation
sums.  Coroutine wrappers (pool spawn/retire) span awaits, during
which other tasks run, so they report elapsed time and stay out of
the partition.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["Slot", "Tracer", "reconcile", "span_totals"]

#: Busy times are measured by wrappers that cost time themselves, so a
#: partition may overshoot the wall it divides by this share before
#: reconciliation calls it double counting.
TOLERANCE = 0.05


class Slot:
    """Accumulator behind one wrapped entry point."""

    __slots__ = ("calls", "busy", "self_busy", "rows")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_busy = 0.0
        self.rows = 0


class Tracer:
    """Installs and removes timing wrappers; owns their accumulators."""

    def __init__(self) -> None:
        self.slots: dict[str, Slot] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[type, str, Any]] = []

    def slot(self, name: str) -> Slot:
        return self.slots.setdefault(name, Slot())

    def clear(self) -> None:
        """Zero every accumulator (wrappers stay installed)."""
        for slot in self.slots.values():
            slot.reset()

    def metrics(self) -> dict[str, tuple[float, int]]:
        """``<name>_calls`` and ``<name>_busy_s`` of every slot."""
        values: dict[str, tuple[float, int]] = {}
        for name, slot in self.slots.items():
            values[f"{name}_calls"] = (slot.calls, slot.calls)
            values[f"{name}_busy_s"] = (slot.busy, slot.calls)
        return values

    def self_times(self) -> dict[str, float]:
        """Self time per slot: disjoint pieces of the wall time."""
        return {name: slot.self_busy for name, slot in self.slots.items()}

    # ------------------------------------------------------------------
    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        rows: Callable[[tuple, Any], int] | None = None,
    ) -> None:
        """Time ``cls.attr`` (defined on ``cls`` itself) into ``name``.

        ``rows(args, result)`` optionally counts the items one call
        handled (rows persisted, entries written).
        """
        original = cls.__dict__[attr]
        slot = self.slot(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                children = stack.pop()
                slot.calls += 1
                slot.busy += elapsed
                slot.self_busy += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if rows is not None:
                    slot.rows += rows(args, result)

        self._install(cls, attr, original, wrapper)

    def wrap_async(self, cls: type, attr: str, name: str) -> None:
        """Time coroutine method ``cls.attr`` (elapsed, awaits included)."""
        original = cls.__dict__[attr]
        slot = self.slot(name)
        clock = time.perf_counter

        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                slot.calls += 1
                slot.busy += clock() - started

        self._install(cls, attr, original, wrapper)

    def _install(
        self, cls: type, attr: str, original: Any, wrapper: Any
    ) -> None:
        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        """Put every original class attribute back."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def span_totals(spans: Iterable[Any]) -> dict[str, tuple[int, float]]:
    """``name -> (count, summed duration)`` over finished obs spans;
    a name never recorded reads ``(0, 0.0)``."""
    totals: dict[str, tuple[int, float]] = defaultdict(lambda: (0, 0.0))
    for span in spans:
        count, busy = totals[span.name]
        totals[span.name] = (count + 1, busy + span.duration)
    return totals


def reconcile(
    wall: float,
    parts: dict[str, float],
    nesting: Iterable[tuple[str, float, str, float]],
) -> list[str]:
    """Check that per-layer times are consistent with the total.

    Args:
        wall: wall time of the measured phase.
        parts: disjoint busy times that, with the remainder the caller
            reports as the substrate's self time, partition ``wall``.
        nesting: ``(child, child_busy, parent, parent_busy)`` rows; a
            child's time lies inside its parent's.

    Returns one line per violation; empty means the numbers reconcile.
    """
    problems = []
    accounted = sum(parts.values())
    if accounted > wall * (1.0 + TOLERANCE):
        problems.append(
            f"layers sum to {accounted:.3f}s, over the {wall:.3f}s wall "
            "(double counting)"
        )
    for name, busy in parts.items():
        if busy < 0.0:
            problems.append(f"{name} is negative ({busy:.6f}s)")
    for child, child_busy, parent, parent_busy in nesting:
        if child_busy > parent_busy * (1.0 + TOLERANCE) + 1e-6:
            problems.append(
                f"{child} ({child_busy:.6f}s) exceeds its parent "
                f"{parent} ({parent_busy:.6f}s)"
            )
    return problems


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads touch."""
    from repro.core.plan_cache import PlanCache
    from repro.detect import SketchWindow
    from repro.service.coordinator import ServiceCoordinator
    from repro.service.pool import ReplicaPool
    from repro.service.tokens import (
        SaturationMonitor,
        SketchSaturationMonitor,
        TokenBucket,
    )
    from repro.trust import TrustManager
    from repro.trust.storage import (
        JsonFileBackend,
        MemoryBackend,
        SqliteBackend,
    )

    tracer.wrap(TokenBucket, "try_acquire", "service.tokens.acquire")
    for monitor in (SaturationMonitor, SketchSaturationMonitor):
        tracer.wrap(monitor, "record", "service.tokens.record")
        tracer.wrap(monitor, "saturated", "service.tokens.saturated")
    tracer.wrap(SketchWindow, "record", "detect.record")
    tracer.wrap(SketchWindow, "heavy_hitters", "detect.heavy_hitters")
    tracer.wrap(TrustManager, "admit_decision", "trust.admit")
    tracer.wrap(TrustManager, "observe", "trust.observe")
    tracer.wrap(
        TrustManager, "persist", "trust.persist",
        rows=lambda args, result: result or 0,
    )
    for backend in (MemoryBackend, SqliteBackend, JsonFileBackend):
        tracer.wrap(backend, "flush", "trust.storage.flush")
        # MemoryBackend inherits a put_many that loops over put, so its
        # rows are counted there; the other two write the batch at once.
        tracer.wrap(
            backend, "put", "trust.storage.put", rows=lambda args, _: 1
        )
        if "put_many" in backend.__dict__:
            tracer.wrap(
                backend, "put_many", "trust.storage.put",
                rows=lambda args, _: len(args[2]),
            )
    tracer.wrap(ServiceCoordinator, "assign", "service.coordinator.assign")
    tracer.wrap_async(ReplicaPool, "spawn", "service.pool.spawn")
    tracer.wrap_async(ReplicaPool, "retire", "service.pool.retire")
    # Runs on a worker thread inside start(), while the loop thread
    # only waits for it, so the shared call stack is still consistent.
    tracer.wrap(PlanCache, "precompute", "core.plan_cache_precompute")
