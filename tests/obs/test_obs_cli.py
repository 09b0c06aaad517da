"""Tests for the ``repro-obs`` trace inspector CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ShuffleEngine
from repro.obs import Event, EventLog, Instruments, export_jsonl
from repro.obs.cli import (
    diff_counts,
    heavy_hitter_tables,
    main,
    summarize_events,
    trust_tables,
)


def write_trace(tmp_path, name, events):
    return str(export_jsonl(events, tmp_path / name))


def sample_events():
    return [
        Event(time=0.0, kind="attack_detected", data={"n": 2}),
        Event(time=1.0, kind="shuffle_started", data={}),
        Event(time=4.0, kind="shuffle_completed", data={"duration": 3.0}),
        Event(time=5.0, kind="span",
              data={"span_id": 1, "name": "round", "duration": 0.5}),
    ]


class TestSummarize:
    def test_table_output(self, tmp_path, capsys):
        trace = write_trace(tmp_path, "t.jsonl", sample_events())
        assert main(["summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "4 events" in out
        assert "attack_detected" in out
        assert "time range: 0.000000 .. 5.000000" in out
        assert "round" in out  # span stats section

    def test_json_output_machine_readable(self, tmp_path, capsys):
        trace = write_trace(tmp_path, "t.jsonl", sample_events())
        assert main(["summarize", trace, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 4
        assert summary["kinds"]["shuffle_completed"] == 1
        assert summary["spans"]["round"]["count"] == 1

    def test_missing_file_exits_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["summarize", str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2
        assert "no such trace file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line", ["not json", '{"kind": "b"}', "[1, 2]"]
    )
    def test_malformed_line_is_exit_two_naming_the_line(
        self, tmp_path, capsys, bad_line
    ):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"time": 0.0, "kind": "a"}\n' + bad_line + "\n",
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["summarize", str(trace)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-obs: {trace}:2: ")
        assert len(err.strip().splitlines()) == 1

    def test_summarize_recorded_fig8_trace(self, tmp_path, capsys):
        """End to end: record a (scaled-down) fig8-style shuffle run
        through the obs layer, export JSONL, summarize via the CLI."""
        bundle = Instruments.create(source="core")
        engine = ShuffleEngine(
            n_replicas=50,
            planner="greedy",
            rng=np.random.default_rng(0),
            instruments=bundle,
        )
        state = engine.run(
            benign=1_000, bots=500, target_fraction=0.8, max_rounds=200
        )
        trace = write_trace(
            tmp_path, "fig8.jsonl", list(bundle.spans.to_events())
        )
        assert main(["summarize", trace, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"]["shuffle_round"]["count"] == len(
            state.rounds
        )
        assert summary["spans"]["plan"]["count"] == len(state.rounds)


class TestDiff:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        left = write_trace(tmp_path, "a.jsonl", sample_events())
        right = write_trace(tmp_path, "b.jsonl", sample_events())
        assert main(["diff", left, right]) == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_counts_exit_one(self, tmp_path, capsys):
        left = write_trace(tmp_path, "a.jsonl", sample_events())
        right = write_trace(tmp_path, "b.jsonl", sample_events()[:2])
        assert main(["diff", left, right]) == 1
        out = capsys.readouterr().out
        assert "shuffle_completed" in out
        assert "(-1)" in out

    def test_missing_file_is_exit_two_not_a_difference(
        self, tmp_path, capsys
    ):
        left = write_trace(tmp_path, "a.jsonl", sample_events())
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", left, str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_malformed_line_is_exit_two_not_a_difference(
        self, tmp_path, capsys
    ):
        left = write_trace(tmp_path, "a.jsonl", sample_events())
        right = tmp_path / "b.jsonl"
        right.write_text("not json\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", left, str(right)])
        assert excinfo.value.code == 2
        assert f"{right}:1: not JSON" in capsys.readouterr().err

    def test_diff_counts_helper(self):
        left = [Event(time=0.0, kind="a"), Event(time=1.0, kind="b")]
        right = [Event(time=0.0, kind="a"), Event(time=1.0, kind="c")]
        assert diff_counts(left, right) == {"b": (1, 0), "c": (0, 1)}


class TestTail:
    def test_last_n_events_in_order(self, tmp_path, capsys):
        trace = write_trace(tmp_path, "t.jsonl", sample_events())
        assert main(["tail", trace, "-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "shuffle_completed" in lines[0]
        assert "span" in lines[1]

    def test_kind_filter(self, tmp_path, capsys):
        trace = write_trace(tmp_path, "t.jsonl", sample_events())
        assert main(["tail", trace, "--kind", "shuffle_started"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "shuffle_started" in lines[0]


def heavy_hitter_events():
    """Two replicas reporting twice; only the latest report counts."""
    payload = {
        "window": 1.0, "total": 100, "throttled": 80,
        "top": [["bot-1", 60, 0], ["c-9", 8, 3]],
        "state_bytes": 22080,
    }
    stale = {
        "window": 1.0, "total": 10, "throttled": 1,
        "top": [["c-2", 4, 0]], "state_bytes": 22080,
    }
    return [
        Event(time=1.0, kind="heavy_hitters",
              data=dict(stale, replica="r-1"), source="service"),
        Event(time=5.0, kind="heavy_hitters",
              data=dict(payload, replica="r-1"), source="service"),
        Event(time=3.0, kind="heavy_hitters",
              data=dict(payload, replica="r-2", total=40),
              source="service"),
    ]


class TestHeavyHitters:
    def test_latest_report_per_replica(self):
        tables = heavy_hitter_tables(heavy_hitter_events())
        assert sorted(tables) == ["r-1", "r-2"]
        assert tables["r-1"]["time"] == 5.0
        assert tables["r-1"]["total"] == 100
        assert tables["r-1"]["top"][0] == ["bot-1", 60, 0]
        assert tables["r-2"]["total"] == 40

    def test_other_kinds_are_ignored(self):
        assert heavy_hitter_tables(sample_events()) == {}

    def test_summarize_payload_includes_tables(self):
        summary = summarize_events(heavy_hitter_events())
        assert summary["heavy_hitters"]["r-1"]["throttled"] == 80

    def test_table_rendering(self, tmp_path, capsys):
        trace = write_trace(
            tmp_path, "hh.jsonl", heavy_hitter_events()
        )
        assert main(["summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "heavy hitters (latest report per replica)" in out
        assert "replica r-1: 100 requests, 80 throttled" in out
        assert "bot-1" in out
        assert "count<=60" in out

    def test_integer_replica_ids_render(self, tmp_path, capsys):
        """Cloudsim traces carry integer replica ids; the table must
        render them structurally like any other payload."""
        event = Event(
            time=2.0, kind="heavy_hitters",
            data={"replica": 3, "total": 7, "throttled": 2,
                  "top": [["naive-fleet", 7, 0]]},
            source="cloudsim",
        )
        tables = heavy_hitter_tables([event])
        assert tables["3"]["top"] == [["naive-fleet", 7, 0]]
        trace = write_trace(tmp_path, "sim.jsonl", [event])
        assert main(["summarize", trace]) == 0
        assert "naive-fleet" in capsys.readouterr().out


def trust_snapshot_events():
    """Two replicas; r-1 reports twice, only the later snapshot counts."""
    return [
        Event(time=1.0, kind="trust_snapshot",
              data={"replica": "r-1", "clients": 20, "mean_trust": 0.61,
                    "tiers": {"TRUSTED": 0, "WATCH": 20,
                              "THROTTLED": 0, "DENIED": 0}},
              source="service"),
        Event(time=6.0, kind="trust_snapshot",
              data={"replica": "r-1", "clients": 22, "mean_trust": 0.48,
                    "tiers": {"TRUSTED": 4, "WATCH": 12,
                              "THROTTLED": 4, "DENIED": 2}},
              source="service"),
        Event(time=3.0, kind="trust_snapshot",
              data={"replica": "r-2", "clients": 18, "mean_trust": 0.75,
                    "tiers": {"TRUSTED": 10, "WATCH": 8,
                              "THROTTLED": 0, "DENIED": 0}},
              source="service"),
    ]


class TestTrustTiers:
    def test_latest_snapshot_per_replica(self):
        tables = trust_tables(trust_snapshot_events())
        assert sorted(tables) == ["r-1", "r-2"]
        assert tables["r-1"]["time"] == 6.0
        assert tables["r-1"]["clients"] == 22
        assert tables["r-1"]["tiers"]["DENIED"] == 2
        assert tables["r-2"]["mean_trust"] == 0.75

    def test_other_kinds_are_ignored(self):
        assert trust_tables(sample_events()) == {}

    def test_summarize_payload_includes_tables(self):
        summary = summarize_events(trust_snapshot_events())
        assert summary["trust_tiers"]["r-1"]["tiers"]["THROTTLED"] == 4

    def test_table_rendering(self, tmp_path, capsys):
        """The payload renders structurally — this layer never imports
        repro.trust, the event carries everything it needs."""
        trace = write_trace(
            tmp_path, "trust.jsonl", trust_snapshot_events()
        )
        assert main(["summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "trust tiers (latest snapshot per replica):" in out
        assert "replica r-1: 22 clients, mean trust 0.480" in out
        # export_jsonl sorts payload keys, so tiers render sorted.
        assert "DENIED=2, THROTTLED=4, TRUSTED=4, WATCH=12" in out
        assert "replica r-2: 18 clients, mean trust 0.750" in out

    def test_absent_snapshots_render_nothing(self, tmp_path, capsys):
        trace = write_trace(tmp_path, "plain.jsonl", sample_events())
        assert main(["summarize", trace]) == 0
        assert "trust tiers" not in capsys.readouterr().out


class TestSummarizeHelper:
    def test_empty_trace(self):
        summary = summarize_events([])
        assert summary["events"] == 0
        assert summary["time_range"] is None

    def test_sources_counted(self):
        log = EventLog(source="service")
        log.emit(1.0, "tick")
        log.emit(2.0, "tick")
        summary = summarize_events(log.events)
        assert summary["sources"] == {"service": 2}
