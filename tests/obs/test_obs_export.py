"""Tests for JSON/JSONL exporters and the Prometheus text rendering."""

from __future__ import annotations

import json

from repro.obs import (
    Event,
    EventLog,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    events_to_jsonl,
    export_json,
    export_jsonl,
    read_events,
    read_events_text,
    render_prometheus,
)

GOLDEN_PROMETHEUS = """\
# HELP requests_total Requests by outcome.
# TYPE requests_total counter
requests_total{outcome="ok"} 3
requests_total{outcome="throttled"} 1
# HELP round_seconds Round duration.
# TYPE round_seconds histogram
round_seconds_bucket{le="0.1"} 1
round_seconds_bucket{le="1"} 2
round_seconds_bucket{le="+Inf"} 3
round_seconds_sum 5.55
round_seconds_count 3
# HELP tokens Bucket level.
# TYPE tokens gauge
tokens 12.5
"""


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter(
        "requests_total", "Requests by outcome.", ("outcome",)
    )
    counter.inc(3, outcome="ok")
    counter.inc(outcome="throttled")
    registry.gauge("tokens", "Bucket level.").set(12.5)
    hist = registry.histogram(
        "round_seconds", "Round duration.", buckets=(0.1, 1.0)
    )
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestPrometheusText:
    def test_matches_golden_output(self):
        assert render_prometheus(build_registry()) == GOLDEN_PROMETHEUS

    def test_independent_of_update_order(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "round_seconds", "Round duration.", buckets=(0.1, 1.0)
        )
        for value in (5.0, 0.05, 0.5):  # reversed arrival order
            hist.observe(value)
        registry.gauge("tokens", "Bucket level.").set(12.5)
        counter = registry.counter(
            "requests_total", "Requests by outcome.", ("outcome",)
        )
        counter.inc(outcome="throttled")
        counter.inc(3, outcome="ok")
        assert render_prometheus(registry) == GOLDEN_PROMETHEUS

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.", ("path",)).inc(
            path='with "quotes"\nand newline'
        )
        text = render_prometheus(registry)
        assert '\\"quotes\\"' in text
        assert "\\n" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_content_type_pins_text_format(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestJsonlRoundTrip:
    def test_events_survive_write_and_read(self, tmp_path):
        events = [
            Event(time=1.0, kind="a", data={"x": 1}, source="sim"),
            Event(time=2.0, kind="b", data={}),
            Event(time=3.0, kind="a", data={"nested": {"y": [1, 2]}}),
        ]
        path = export_jsonl(events, tmp_path / "trace.jsonl")
        assert read_events(path) == events

    def test_event_log_round_trips(self, tmp_path):
        log = EventLog(source="service")
        log.emit(0.5, "sweep", n=1)
        log.emit(1.5, "shuffle", n=2)
        path = export_jsonl(log.events, tmp_path / "log.jsonl")
        recovered = read_events(path)
        assert recovered == log.events

    def test_dict_records_accepted(self):
        text = events_to_jsonl(
            [{"time": 1.0, "kind": "k"}, Event(time=2.0, kind="j")]
        )
        kinds = [e.kind for e in read_events_text(text)]
        assert kinds == ["k", "j"]

    def test_empty_trace_writes_empty_file(self, tmp_path):
        path = export_jsonl([], tmp_path / "empty.jsonl")
        assert path.read_text(encoding="utf-8") == ""
        assert read_events(path) == []


class TestExportJson:
    def test_sorted_pretty_newline_terminated(self, tmp_path):
        path = export_json({"b": 1, "a": 2}, tmp_path / "doc.json")
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}
