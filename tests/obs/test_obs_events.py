"""Tests for the canonical Event record and its byte-compat contract."""

from __future__ import annotations

import json

from repro.obs import Event, EventLog


class TestByteCompatibility:
    """Events without ``source`` must keep the stored-trace layout:
    ``{"time", "kind", **data}``, sorted keys, time rounded to 6 dp."""

    def test_legacy_layout_sorted_keys_rounded_time(self):
        event = Event(time=1.23456789, kind="shuffle_completed",
                      data={"n_clients": 5, "duration": 2.0})
        assert event.to_json() == (
            '{"duration": 2.0, "kind": "shuffle_completed", '
            '"n_clients": 5, "time": 1.234568}'
        )

    def test_source_is_appended_after_legacy_payload(self):
        bare = Event(time=1.0, kind="k", data={"a": 1})
        sourced = Event(time=1.0, kind="k", data={"a": 1}, source="svc")
        legacy = bare.to_json()
        extended = sourced.to_json()
        assert extended.startswith(legacy[:-1])
        assert extended.endswith(', "source": "svc"}')
        assert json.loads(extended)["source"] == "svc"

    def test_round_trip_from_dict(self):
        event = Event(time=2.5, kind="k", data={"x": [1, 2]}, source="s")
        assert Event.from_dict(event.to_dict()) == event

    def test_legacy_record_parses_without_source(self):
        record = json.loads('{"time": 3.0, "kind": "old", "n": 7}')
        event = Event.from_dict(record)
        assert event.source is None
        assert event.data == {"n": 7}


class TestEventLog:
    def test_emit_stamps_source(self):
        log = EventLog(source="cloudsim")
        log.emit(1.0, "tick", n=1)
        assert log.events[0].source == "cloudsim"

    def test_kind_filter_applies_to_append_too(self):
        log = EventLog(kinds=frozenset({"keep"}))
        log.emit(0.0, "keep")
        log.emit(0.0, "drop")
        log.append(Event(time=0.0, kind="drop"))
        assert [event.kind for event in log] == ["keep"]

    def test_capacity_bounds_memory(self):
        log = EventLog(capacity=3)
        for index in range(10):
            log.emit(float(index), "tick")
        assert len(log) == 3
        assert log.dropped == 7
        assert [event.time for event in log.events] == [7.0, 8.0, 9.0]

    def test_queries(self):
        log = EventLog()
        log.emit(1.0, "a", x=1)
        log.emit(2.0, "b")
        log.emit(3.0, "a", x=2)
        assert [e.data["x"] for e in log.of_kind("a")] == [1, 2]
        assert [e.kind for e in log.between(1.5, 3.0)] == ["b", "a"]

    def test_jsonl_lines_parse(self):
        log = EventLog(source="test")
        log.emit(1.0, "alpha", value=1)
        log.emit(2.0, "beta")
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["source"] == "test"
