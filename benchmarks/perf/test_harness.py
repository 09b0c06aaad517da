"""Self-tests of the benchmark harness (no workload is run).

Run with ``python -m pytest benchmarks/perf -q``; tier-1's
``testpaths`` does not reach this directory.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import pytest

from . import hostclock, ledger, schema, stats, tracing
from .workloads import WORKLOADS


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert not stats.supported(999, 99.0)
    assert stats.supported(1000, 99.0)
    assert stats.percentile(list(range(999)), 99.0) is None
    assert stats.percentile(list(range(1, 1001)), 99.0) == 990.0
    assert stats.percentile(list(range(1, 21)), 50.0) == 10.0


def test_spread_is_the_contract_rule():
    values = [10.0, 10.4, 9.8, 10.1, 11.0, 9.9, 10.2, 10.3, 9.7, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    expected = (q3 - q1) / statistics.median(values)
    assert stats.spread(values) == pytest.approx(expected)
    assert stats.spread([3.0]) == 0.0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _records(workload, metric, values):
    return [
        record
        for seed, value in enumerate(values)
        for record in ledger.make_records(
            workload, seed, False, {metric: (value, 1)}
        )
    ]


def _status(metric, base, change):
    (row,) = ledger.compare(
        _records("w", metric, base), _records("w", metric, change)
    )
    return row["status"]


def test_compare_within_bound_is_ok():
    # requests_per_s: higher is better, bound 25 %
    assert _status("requests_per_s", [100, 101, 99], [80, 81, 79]) == "ok"
    assert _status("requests_per_s", [100, 101, 99], [140, 141, 139]) == "ok"


def test_compare_beyond_bound_is_regressed():
    base, change = [100, 101, 99], [70, 71, 69]
    assert _status("requests_per_s", base, change) == "regressed"
    # benign_p50_ms: lower is better, so the opposite move regresses
    assert _status("benign_p50_ms", [10.0, 10.1, 9.9], [12.0, 12.1, 11.9]) == (
        "regressed"
    )
    assert _status("benign_p50_ms", [10.0, 10.1, 9.9], [8.0, 8.1, 7.9]) == "ok"


def test_compare_spread_wider_than_bound_is_unresolved():
    noisy = [100, 130, 70, 115, 85]
    assert _status("requests_per_s", noisy, [98, 128, 72, 113, 83]) == (
        "unresolved"
    )
    # ... unless every run of the change beats every run of the base
    assert _status("requests_per_s", noisy, [140, 170, 135, 150, 160]) == (
        "ok"
    )


def test_compare_absolute_bounds():
    # shuffles_to_quarantine may move by 2 rounds, whatever the base
    assert _status("shuffles_to_quarantine", [13], [15]) == "ok"
    assert _status("shuffles_to_quarantine", [13], [16]) == "regressed"
    # setup_s: the larger of 25 % and 0.1 s
    assert _status("setup_s", [0.04], [0.13]) == "ok"
    assert _status("setup_s", [0.04], [0.15]) == "regressed"


def test_compare_ignores_per_layer_and_unshared_rows():
    base = _records("w", "wall_s", [1.0]) + _records(
        "w", "detect.record_busy_s", [1.0]
    )
    change = _records("w", "wall_s", [1.0]) + _records(
        "other", "wall_s", [9.0]
    )
    rows = ledger.compare(base, change)
    assert [(r["workload"], r["metric"]) for r in rows] == [("w", "wall_s")]


def test_compare_does_not_judge_the_host():
    assert ledger.compare(
        _records("w", "host_speed", [1.0]), _records("w", "host_speed", [0.5])
    ) == []


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def test_ledger_round_trip(tmp_path):
    records = ledger.make_records(
        "steady_plain", 3, True,
        {"detect.record_calls": (17, 17), "service.wire_self_s": (0.5, 1)},
    )
    for record in records:
        assert set(record) == {
            "commit", "host", "workload", "seed", "traced", "layer",
            "metric", "unit", "value", "n",
        }
        assert set(record["host"]) == {
            "nproc", "cpu", "python", "numpy", "loopback",
        }
    assert [r["layer"] for r in records] == ["detect", "service"]
    path = tmp_path / "ledger.json"
    ledger.write(path, records)
    assert ledger.load(path) == records
    path.write_text('{"schema": "other", "records": []}')
    with pytest.raises(ValueError):
        ledger.load(path)


def test_benchmark_json_restates_the_catalogue():
    contract = json.loads(
        (ledger.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    assert [
        (w["name"], w["why"]) for w in contract["workloads"]
    ] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [
        (m.name, m.unit, m.better, m.bound)
        for m in map(schema.METRICS.get, schema.CONTRACT_END_TO_END)
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [
        (m.name, m.unit, m.better)
        for m in map(schema.METRICS.get, schema.CONTRACT_PER_LAYER)
    ]
    assert "setup_s" in schema.CONTRACT_END_TO_END


def test_baseline_is_a_ledger_of_every_workload():
    records = ledger.load(ledger.ROOT / "benchmarks/perf/baseline.json")
    assert {r["workload"] for r in records} == set(WORKLOADS)
    assert {r["metric"] for r in records} <= set(schema.METRICS)
    # end-to-end numbers come from the untraced pass only
    assert not any(
        r["traced"] for r in records if r["layer"] == "end_to_end"
    )


# ----------------------------------------------------------------------
# host clock
# ----------------------------------------------------------------------
def test_host_clock_converts_wall_to_reference_seconds():
    host = hostclock.HostClock()
    lap = hostclock.REFERENCE_LAP_S
    host.laps = [(1.0, lap), (2.0, 2 * lap), (3.0, 2 * lap), (9.0, lap / 2)]
    assert host.speed(0.5, 1.5) == 1.0
    assert host.speed(1.5, 3.5) == 0.5
    assert host.seconds(1.5, 3.5) == 1.0
    assert host.speed(0.0, 3.5) == pytest.approx(2.0 / 3.0)
    # a stretch that holds no lap takes the nearest one
    assert host.speed(7.0, 8.0) == 2.0


def test_host_clock_laps_on_a_timer_and_gives_the_signal_back():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as host:
        until = time.perf_counter() + 3.5 * hostclock.INTERVAL
        while time.perf_counter() < until:
            pass
    assert len(host.laps) >= 2
    assert all(0.0 < lap < hostclock.INTERVAL for _, lap in host.laps)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
class _Inner:
    def work(self):
        time.sleep(0.002)
        return 3


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def work(self):
        time.sleep(0.002)
        return self.inner.work()


def test_wrappers_time_nested_calls_once_and_restore():
    original_outer = _Outer.__dict__["work"]
    original_inner = _Inner.__dict__["work"]
    with tracing.Tracer() as tracer:
        tracer.wrap(_Outer, "work", "outer")
        tracer.wrap(
            _Inner, "work", "inner", rows=lambda args, result: result
        )
        assert _Outer().work() == 3
        outer, inner = tracer.slot("outer"), tracer.slot("inner")
        assert (outer.calls, inner.calls, inner.rows) == (1, 1, 3)
        assert outer.busy >= inner.busy >= 0.002
        # the inner call is charged to the inner layer only
        assert outer.self_busy == pytest.approx(outer.busy - inner.busy)
        assert inner.self_busy == inner.busy
        tracer.clear()
        assert (outer.calls, outer.busy, inner.rows) == (0, 0.0, 0)
    assert _Outer.__dict__["work"] is original_outer
    assert _Inner.__dict__["work"] is original_inner


def test_layer_wrappers_are_removed():
    from repro.service.pool import ReplicaPool
    from repro.service.tokens import TokenBucket
    from repro.trust.storage import MemoryBackend

    before = (
        TokenBucket.__dict__["try_acquire"],
        ReplicaPool.__dict__["spawn"],
        MemoryBackend.__dict__["put"],
    )
    with tracing.Tracer() as tracer:
        tracing.install_layers(tracer)
        assert TokenBucket.__dict__["try_acquire"] is not before[0]
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_acquire() and not bucket.try_acquire()
        assert tracer.slot("service.tokens.acquire").calls == 2
        # inherited put_many is not re-wrapped on the subclass
        assert "put_many" not in MemoryBackend.__dict__
    assert before == (
        TokenBucket.__dict__["try_acquire"],
        ReplicaPool.__dict__["spawn"],
        MemoryBackend.__dict__["put"],
    )


def test_reconcile_flags_double_counting_and_escaped_children():
    assert tracing.reconcile(10.0, {"a": 4.0, "b": 5.0}, []) == []
    assert tracing.reconcile(
        10.0, {"a": 4.0}, [("child", 1.0, "parent", 1.02)]
    ) == []
    (over,) = tracing.reconcile(10.0, {"a": 6.0, "b": 5.0}, [])
    assert "double counting" in over
    (escaped,) = tracing.reconcile(
        10.0, {"a": 1.0}, [("child", 2.0, "parent", 1.0)]
    )
    assert "exceeds its parent" in escaped
