"""repro.obs — the unified observability layer.

One metrics/span/event substrate shared by core, sim, cloudsim and
the service:

- :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms with label support.
- :mod:`~repro.obs.spans` — :class:`Span`/:class:`SpanRecorder` timed
  nesting with explicit clock injection (sim-time or monotonic).
- :mod:`~repro.obs.events` — the canonical :class:`Event` record and
  the :class:`EventLog` collector.
- :mod:`~repro.obs.export` — JSONL / JSON / Prometheus-text exporters.
- :mod:`~repro.obs.instruments` — the uniform ``instruments=`` handle
  components accept (``None`` resolves to the installed default, else
  to :data:`DISABLED`, a bundle that records nothing).
- :mod:`~repro.obs.cli` — the ``repro-obs`` trace inspector
  (``summarize`` / ``diff`` / ``tail``).

The layer is stdlib-only and imports nothing from the rest of the
package (reprolint P1 places ``obs`` below every other layer), so any
layer — core included — may depend on it.

Quickstart::

    from repro.obs import Instruments
    from repro.core import ShuffleEngine

    instruments = Instruments.create(source="core")
    engine = ShuffleEngine(n_replicas=1000, instruments=instruments)
    engine.run(benign=10_000, bots=5_000)
    print(instruments.registry.counter("shuffle_rounds_total").value())
    for line in instruments.spans.tree_lines()[:8]:
        print(line)
"""

from __future__ import annotations

from .events import Event, EventLog
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    events_to_jsonl,
    export_json,
    export_jsonl,
    read_events,
    read_events_text,
    render_prometheus,
)
from .instruments import (
    DISABLED,
    Instruments,
    get_default_instruments,
    resolve_instruments,
    set_default_instruments,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DISABLED",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "SpanRecorder",
    "events_to_jsonl",
    "export_json",
    "export_jsonl",
    "get_default_instruments",
    "read_events",
    "read_events_text",
    "render_prometheus",
    "resolve_instruments",
    "set_default_instruments",
]
