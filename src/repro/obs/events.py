"""The canonical event record shared by every layer's audit trail.

cloudsim and the live service both emit :class:`Event`
records into the shared :class:`EventLog` collector.

**Byte format contract:** for events without the optional ``source``
field, :meth:`Event.to_json` produces exactly ``{"time", "kind",
**data}`` with sorted keys and time rounded to 6 decimals.  New fields
are only ever appended after that payload, so stored JSONL traces (and
the hashseed double-run diff in CI) keep reading unmodified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence anywhere in the system.

    Attributes:
        time: when it happened, on the emitting layer's clock (sim-time
            in the simulators, monotonic wall-clock in the service).
        kind: event type tag (``shuffle_completed``, ``span``, ...).
        data: JSON-ready payload.
        source: optional emitting layer/component (``cloudsim``,
            ``service``, ...) — the only field the legacy schema lacked.
    """

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)
    source: str | None = None

    def to_json(self) -> str:
        legacy = json.dumps(
            {"time": round(self.time, 6), "kind": self.kind, **self.data},
            sort_keys=True,
        )
        if self.source is None:
            return legacy
        # Append-only extension: the legacy prefix stays byte-identical.
        return (
            legacy[:-1] + ', "source": ' + json.dumps(self.source) + "}"
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "time": round(self.time, 6),
            "kind": self.kind,
            **self.data,
        }
        if self.source is not None:
            out["source"] = self.source
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Event":
        """Inverse of :meth:`to_dict` (also parses legacy records)."""
        data = dict(payload)
        time = float(data.pop("time"))
        kind = str(data.pop("kind"))
        source = data.pop("source", None)
        return cls(time=time, kind=kind, data=data, source=source)


@dataclass
class EventLog:
    """Collects :class:`Event` records in arrival order.

    Layer-neutral, so cloudsim and the service share it.

    Args:
        kinds: optional allow-list; events of other kinds are dropped at
            the emit site (useful to trace only shuffles in long runs).
        capacity: optional cap on retained events (oldest dropped
            first), bounding memory in very long runs.
        source: default ``source`` stamped on events emitted through
            :meth:`emit` (``None`` preserves the legacy byte format).
    """

    kinds: frozenset[str] | None = None
    capacity: int | None = None
    source: str | None = None
    events: list[Event] = field(default_factory=list)
    dropped: int = 0

    def emit(self, time: float, kind: str, **data: Any) -> None:
        """Record one event (subject to the kind filter and capacity)."""
        if self.kinds is not None and kind not in self.kinds:
            return
        self.append(
            Event(time=time, kind=kind, data=data, source=self.source)
        )

    def append(self, event: Event) -> None:
        """Record a ready-made event (e.g. from a span recorder)."""
        if self.kinds is not None and event.kind not in self.kinds:
            return
        self.events.append(event)
        if self.capacity is not None and len(self.events) > self.capacity:
            overflow = len(self.events) - self.capacity
            del self.events[:overflow]
            self.dropped += overflow

    def of_kind(self, kind: str) -> list[Event]:
        """All retained events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def between(self, start: float, end: float) -> Iterator[Event]:
        """Events with ``start <= time <= end``."""
        return (
            event for event in self.events if start <= event.time <= end
        )

    def to_jsonl(self) -> str:
        """Export every retained event as JSON-lines."""
        return "\n".join(event.to_json() for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)
