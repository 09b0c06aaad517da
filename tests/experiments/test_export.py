"""Tests for the JSON export of experiment results."""

from __future__ import annotations

import json

import numpy as np
from repro.experiments.export import dump_json, to_jsonable
from repro.experiments.runner import main
from repro.sim.stats import SampleSummary


class TestToJsonable:
    def test_sample_summary(self):
        summary = SampleSummary(
            mean=1.5, half_width=0.2, n=5, confidence=0.95, std=0.1
        )
        assert to_jsonable(summary) == {
            "mean": 1.5, "half_width": 0.2, "n": 5, "confidence": 0.95
        }

    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.int64(7)) == 7
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_nan_becomes_null(self):
        assert to_jsonable(float("nan")) is None
        # np.float64 is a float subclass: its NaN must not pass through
        # either, or the file gets the bare token NaN, which is not JSON.
        assert to_jsonable(np.float64("nan")) is None
        assert to_jsonable(np.float32("nan")) is None

    def test_dataclass_with_skipped_fields(self):
        from dataclasses import dataclass

        @dataclass
        class Thing:
            x: int
            result: str  # skipped by policy

        assert to_jsonable(Thing(x=1, result="big")) == {"x": 1}

    def test_nested_structures(self):
        data = {"a": [SampleSummary(1.0, 0.0, 1, 0.95, 0.0)], "b": (1, 2)}
        out = to_jsonable(data)
        assert out["a"][0]["mean"] == 1.0
        assert out["b"] == [1, 2]

    def test_fig_rows_serialize(self):
        from repro.experiments.fig4 import run_fig4

        rows = run_fig4(bot_counts=(50,), replica_counts=(100,))
        payload = to_jsonable(rows)
        json.dumps(payload)  # must not raise
        assert payload[0]["n_bots"] == 50


class TestDumpJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json({"x": [1, 2, 3], "y": np.float64("nan")}, str(path))
        assert json.loads(path.read_text()) == {"x": [1, 2, 3], "y": None}


class TestCliIntegration:
    def test_json_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "fig12.json"
        assert main(["fig12", "--quick", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "fig12" in data
        rows = data["fig12"]
        assert rows[0]["n_clients"] == 10
        assert "total_time" in rows[0]
        out = capsys.readouterr().out
        assert "results written" in out
