"""Exporters: one JSON/JSONL writer for every layer, Prometheus text.

``export_json``/``export_jsonl`` are the only writers — one
place pins the on-disk conventions (UTF-8, trailing newline,
``indent=2`` + sorted keys for JSON documents) so reports from any
layer diff cleanly across runs.

``render_prometheus`` renders a :class:`~repro.obs.metrics.
MetricsRegistry` in the Prometheus text exposition format (version
0.0.4), which is what the live service's ``/metrics`` endpoint serves.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Iterator

from .events import Event
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "TraceLineError",
    "events_to_jsonl",
    "export_json",
    "export_jsonl",
    "read_events",
    "read_events_text",
    "render_prometheus",
]


# ----------------------------------------------------------------------
# JSON / JSONL
# ----------------------------------------------------------------------
def export_json(
    payload: Any, path: str | Path, *, sort_keys: bool = True
) -> Path:
    """Write one JSON document (pretty, newline-terminated)."""
    target = Path(path)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n",
        encoding="utf-8",
    )
    return target


def events_to_jsonl(events: Iterable[Event | dict[str, Any]]) -> str:
    """Render events (or ready dicts) as JSON-lines text."""
    lines = []
    for event in events:
        if isinstance(event, Event):
            lines.append(event.to_json())
        else:
            lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines)


def export_jsonl(
    events: Iterable[Event | dict[str, Any]], path: str | Path
) -> Path:
    """Write events as a JSONL trace file."""
    target = Path(path)
    text = events_to_jsonl(events)
    target.write_text(
        text + "\n" if text else "", encoding="utf-8"
    )
    return target


class TraceLineError(ValueError):
    """A JSONL trace line that does not hold an event."""

    def __init__(self, lineno: int, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def read_events_text(text: str) -> Iterator[Event]:
    """Parse JSONL text back into events (legacy records included).

    Raises :class:`TraceLineError` (a ``ValueError``) naming the first
    line that is not a JSON object with a numeric ``time`` and a
    ``kind``.
    """
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceLineError(lineno, f"not JSON ({exc.msg})") from None
        if not isinstance(payload, dict):
            raise TraceLineError(lineno, "not a JSON object")
        try:
            event = Event.from_dict(payload)
        except KeyError as exc:
            raise TraceLineError(
                lineno, f"no {exc.args[0]!r} field"
            ) from None
        except (TypeError, ValueError) as exc:
            raise TraceLineError(lineno, f"bad field ({exc})") from None
        yield event


def read_events(path: str | Path) -> list[Event]:
    """Load a JSONL trace file."""
    return list(
        read_events_text(Path(path).read_text(encoding="utf-8"))
    )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: Content type of the text exposition format, for HTTP servers.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(
    names: tuple[str, ...], values: tuple[str, ...], extra: str = ""
) -> str:
    parts = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text format, deterministically ordered.

    Families sort by name and series by label values, so the output is
    independent of update order and hash seed.
    """
    lines: list[str] = []
    for metric in registry:
        lines.append(
            f"# HELP {metric.name} {_escape_help(metric.help_text)}"
        )
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for values, value in metric.series():
                labels = _labels_text(metric.label_names, values)
                lines.append(
                    f"{metric.name}{labels} {_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for values, data in metric.series():
                labelled = dict(zip(metric.label_names, values))
                for bound, count in metric.cumulative_buckets(**labelled):
                    le = (
                        "+Inf" if math.isinf(bound)
                        else _format_value(bound)
                    )
                    labels = _labels_text(
                        metric.label_names, values, f'le="{le}"'
                    )
                    lines.append(f"{metric.name}_bucket{labels} {count}")
                labels = _labels_text(metric.label_names, values)
                lines.append(
                    f"{metric.name}_sum{labels} "
                    f"{_format_value(data.total)}"
                )
                lines.append(f"{metric.name}_count{labels} {data.count}")
    return "\n".join(lines) + ("\n" if lines else "")
