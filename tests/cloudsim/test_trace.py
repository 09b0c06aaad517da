"""Tests for structured tracing of a cloudsim run into ``repro.obs``.

The collector's own filter/capacity/JSONL behaviour is covered in
``tests/obs/test_obs_events.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.cloudsim.system import CloudConfig, CloudDefenseSystem
from repro.obs import EventLog


class TestTracer:
    def test_emit_and_query(self):
        tracer = EventLog()
        tracer.emit(1.0, "a", x=1)
        tracer.emit(2.0, "b", y=2)
        tracer.emit(3.0, "a", x=3)
        assert len(tracer) == 3
        assert [e.data["x"] for e in tracer.of_kind("a")] == [1, 3]
        assert [e.kind for e in tracer.between(1.5, 3.0)] == ["b", "a"]


class TestSystemIntegration:
    def test_untraced_run_works(self):
        system = CloudDefenseSystem(seed=1)
        system.add_benign_clients(10)
        report = system.run(duration=10.0)
        assert report.shuffles == 0  # and no tracer errors

    def test_attack_produces_trace_timeline(self):
        system = CloudDefenseSystem(CloudConfig(), seed=3)
        tracer = EventLog()
        system.ctx.attach_tracer(tracer)
        system.add_benign_clients(60)
        system.add_persistent_bots(6)
        system.run(duration=120.0)

        detections = tracer.of_kind("attack_detected")
        starts = tracer.of_kind("shuffle_started")
        completions = tracer.of_kind("shuffle_completed")
        retirements = tracer.of_kind("replica_retired")
        reveals = tracer.of_kind("botnet_reveal")

        assert detections and starts and completions
        assert len(starts) == len(completions)
        assert len(retirements) >= len(detections)
        assert reveals  # persistent bots betrayed addresses
        # Causality: each completion follows its start.
        for start, done in zip(starts, completions):
            assert done.time > start.time
            assert done.data["duration"] == pytest.approx(
                done.time - start.time, abs=1e-6
            )
        # Timeline is ordered.
        times = [event.time for event in tracer.events]
        assert times == sorted(times)

    def test_trace_filtering_in_system(self):
        system = CloudDefenseSystem(seed=4)
        tracer = EventLog(kinds=frozenset({"shuffle_completed"}))
        system.ctx.attach_tracer(tracer)
        system.add_benign_clients(40)
        system.add_persistent_bots(5)
        system.run(duration=90.0)
        kinds = {event.kind for event in tracer.events}
        assert kinds <= {"shuffle_completed"}

    def test_jsonl_of_real_run_parses(self):
        system = CloudDefenseSystem(seed=5)
        tracer = EventLog()
        system.ctx.attach_tracer(tracer)
        system.add_benign_clients(30)
        system.add_persistent_bots(4)
        system.run(duration=60.0)
        for line in tracer.to_jsonl().splitlines():
            record = json.loads(line)
            assert "time" in record and "kind" in record
