"""The one instrumentation handle every layer accepts.

Instead of growing per-class ``tracer=`` / ``telemetry=`` keywords,
instrumentable components across the tree take a uniform keyword::

    engine = ShuffleEngine(n_replicas=1000, instruments=instruments)
    coordinator = ServiceCoordinator(config, instruments=instruments)

with ``instruments=None`` (the default) meaning *disabled*.  The
contract instrumented code must follow (documented in CONTRIBUTING):

- "disabled" is one bundle, :data:`DISABLED`, whose channels record
  nothing; every emit site calls its handle unconditionally, so there
  is no ``is None`` branch and no second code path to keep in step
  with the traced one;
- components resolve the keyword through :func:`resolve_instruments`
  so a process-wide default installed via :func:`set_default_instruments`
  (used by benchmarks and opt-in production setups) is picked up
  without threading the handle through every constructor; a component
  that ignores the default maps ``None`` straight to :data:`DISABLED`;
- all three channels hang off the same handle: ``registry`` (metric
  families), ``spans`` (timed nesting), ``events`` (the audit log).

The handle is stdlib-only and layer-neutral; which clock the spans use
is the caller's choice (sim-time in the simulators, ``time.monotonic``
in the service — the default of :meth:`Instruments.create`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .events import EventLog
from .metrics import Counter, Gauge, Histogram, Metric, MetricsRegistry
from .spans import Span, SpanRecorder, _SpanHandle

__all__ = [
    "DISABLED",
    "Instruments",
    "get_default_instruments",
    "resolve_instruments",
    "set_default_instruments",
]


@dataclass
class Instruments:
    """Bundle of the three observability channels.

    Build one with :meth:`create` (fresh registry/recorder/log sharing
    one clock) or assemble the pieces yourself — e.g. a sim-time span
    recorder feeding a shared registry.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    spans: SpanRecorder = field(default_factory=SpanRecorder)
    events: EventLog = field(default_factory=EventLog)

    @classmethod
    def create(
        cls,
        clock: Callable[[], float] = time.monotonic,
        source: str | None = None,
        capacity: int | None = None,
    ) -> "Instruments":
        """Fresh bundle on one clock.

        Args:
            clock: time source for spans (and available to emit sites).
            source: default ``source`` stamp on emitted events.
            capacity: retention cap for spans and events (``None`` =
                unbounded; long-lived services should bound it).
        """
        return cls(
            registry=MetricsRegistry(),
            spans=SpanRecorder(clock=clock, capacity=capacity),
            events=EventLog(capacity=capacity, source=source),
        )

    def emit(self, time_stamp: float, kind: str, **data: Any) -> None:
        """Convenience: append one event to the audit log."""
        self.events.emit(time_stamp, kind, **data)

    def export_state(self) -> dict[str, Any]:
        """JSON-ready dump of all three channels (debug/telemetry)."""
        return {
            "metrics": self.registry.to_dict(),
            "spans": [
                event.to_dict() for event in self.spans.to_events()
            ],
            "events": [event.to_dict() for event in self.events.events],
        }


class _IgnoredCounter(Counter):
    records = False

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass


class _IgnoredGauge(Gauge):
    records = False

    def set(self, value: float, **labels: object) -> None:
        pass

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass


class _IgnoredHistogram(Histogram):
    records = False

    def observe(self, value: float, **labels: object) -> None:
        pass


class _DisabledRegistry(MetricsRegistry):
    """Hands out one metric of each kind, which ignores updates;
    registers no family."""

    _ignored: dict[type, Metric] = {
        Counter: _IgnoredCounter("disabled"),
        Gauge: _IgnoredGauge("disabled"),
        Histogram: _IgnoredHistogram("disabled"),
    }

    def _get_or_create(
        self, cls: type, name: str, *args: object, **kwargs: object
    ) -> Metric:
        return self._ignored[cls]


class _IgnoredSpan(Span):
    def set(self, **attrs: Any) -> None:
        pass


class _DisabledSpanRecorder(SpanRecorder):
    """Hands out one shared span handle; records nothing."""

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        return _IGNORED_SPAN

    def _finish(self, span: Span) -> None:
        pass


#: What ``instruments=None`` resolves to when no process-wide default
#: is installed.  Shared by every component, it holds no span, no metric
#: family and no event, whatever is emitted (its event log admits no
#: kind).
DISABLED = Instruments(
    registry=_DisabledRegistry(),
    spans=_DisabledSpanRecorder(),
    events=EventLog(kinds=frozenset()),
)
_IGNORED_SPAN = _SpanHandle(DISABLED.spans, _IgnoredSpan(0, "disabled", 0.0))

#: Process-wide default, installed explicitly — never implicitly.
_default: Instruments | None = None


def set_default_instruments(
    instruments: Instruments | None,
) -> Instruments | None:
    """Install (or clear, with ``None``) the process-wide default.

    Returns the previous default so callers can restore it::

        previous = set_default_instruments(mine)
        try:
            ...
        finally:
            set_default_instruments(previous)
    """
    global _default
    previous = _default
    _default = instruments
    return previous


def get_default_instruments() -> Instruments | None:
    """The installed process-wide default, or ``None`` if none is."""
    return _default


def resolve_instruments(instruments: Instruments | None) -> Instruments:
    """Resolve a component's ``instruments=`` keyword.

    An explicit handle wins; ``None`` falls back to the process-wide
    default, and without one to :data:`DISABLED` — so the out-of-the-box
    state stays a no-op.
    """
    if instruments is not None:
        return instruments
    return _default if _default is not None else DISABLED
