"""Nested spans: what happened inside one operation, and how long.

A :class:`Span` is one timed operation; a :class:`SpanRecorder` hands
them out as context managers and keeps the finished records.  One
shuffle round becomes a span tree::

    with recorder.span("shuffle_round", round=3):
        with recorder.span("estimate"):
            ...
        with recorder.span("plan"):
            ...
        with recorder.span("shuffle"):
            ...
        with recorder.span("substitute"):
            ...

Clocks are **explicit**: the recorder never reads wall-clock time on
its own.  The cloud simulation passes sim-time (``lambda: ctx.now``) so
traces line up with the DES timeline and no wall-clock read enters
the simulation; the live service passes ``time.monotonic``.  The
default is a zero clock — a recorder built without a clock still nests
and orders correctly, it just measures no durations.

Span ids are small integers assigned in *start* order, so recorded
output is deterministic for a deterministic workload (no uuids, no
entropy — the same double-run contract the CI ``hashseed`` job checks).
The recorder keeps one active-span stack and is therefore meant for
sequential instrumentation; the repo's async call sites (the service
coordinator) serialize their instrumented sections, which is exactly
the granularity the span tree documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .events import Event

__all__ = ["Span", "SpanRecorder"]


def _zero_clock() -> float:
    return 0.0


@dataclass
class Span:
    """One timed, attributed operation; nested via ``parent_id``."""

    span_id: int
    name: str
    started_at: float
    parent_id: int | None = None
    ended_at: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed clock time; 0.0 while the span is still open."""
        if self.ended_at is None:
            return 0.0
        return self.ended_at - self.started_at

    @property
    def finished(self) -> bool:
        return self.ended_at is not None

    def set(self, **attrs: Any) -> None:
        """Attach attributes (e.g. the plan's group count) mid-span."""
        self.attrs.update(attrs)

    def to_event(self) -> Event:
        """Render the finished span as one canonical trace event."""
        data: dict[str, Any] = {
            "span_id": self.span_id,
            "name": self.name,
            "duration": round(self.duration, 9),
        }
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        data.update(self.attrs)
        return Event(time=self.started_at, kind="span", data=data)


class _SpanHandle:
    """Context manager produced by :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._recorder._finish(self._span)


class SpanRecorder:
    """Collects finished spans in completion order.

    Args:
        clock: time source for start/end stamps (sim-time, monotonic
            wall-clock, or a test counter).  Defaults to a constant-zero
            clock: structure without durations.
        capacity: optional cap on retained finished spans (oldest
            dropped first), bounding memory in long-lived services.
    """

    def __init__(
        self,
        clock: Callable[[], float] = _zero_clock,
        capacity: int | None = None,
    ) -> None:
        self._clock = clock
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_id = 1
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a child of the innermost active span (or a root)."""
        span = Span(
            span_id=self._next_id,
            name=name,
            started_at=self._clock(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.ended_at = self._clock()
        # Tolerate mis-nested exits (an inner span leaked past its
        # parent's close): pop through to the requested span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans.append(span)
        if self.capacity is not None and len(self.spans) > self.capacity:
            overflow = len(self.spans) - self.capacity
            del self.spans[:overflow]
            self.dropped += overflow

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    def __len__(self) -> int:
        return len(self.spans)

    def named(self, name: str) -> list[Span]:
        """All finished spans with this name, in completion order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def to_events(self) -> Iterator[Event]:
        """Finished spans as canonical events, in (start, id) order.

        Sorting by start time then id makes the export independent of
        completion interleaving: a parent that closes after its children
        still precedes them in the file.
        """
        ordered = sorted(
            self.spans, key=lambda s: (s.started_at, s.span_id)
        )
        for span in ordered:
            yield span.to_event()

    def tree_lines(self) -> list[str]:
        """Indented rendering of the span forest (debug/CLI helper)."""
        children: dict[int | None, list[Span]] = {}
        for span in sorted(
            self.spans, key=lambda s: (s.started_at, s.span_id)
        ):
            children.setdefault(span.parent_id, []).append(span)
        lines: list[str] = []

        def walk(parent_id: int | None, depth: int) -> None:
            for span in children.get(parent_id, []):
                lines.append(
                    "  " * depth
                    + f"{span.name} [{span.span_id}] "
                    f"{span.duration:.6f}s"
                )
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return lines
