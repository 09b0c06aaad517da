"""A run of one key's requests at one instant, folded into few updates.

The live replicas settle each client's run of pipelined requests in a
received chunk at once.  These are the identities that make that exact:
a count-``k`` update of the sketch and of the summary equals ``k`` unit
updates, and a window run split where the key's promotion into the
summary starts (:meth:`SketchWindow.unpromoted`) equals ``k`` unit
records.  The whole-count ``record(count=c)`` the DES uses keeps its one
promotion test, which is a different thing, and is pinned as such.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detect import (
    CountMinSketch,
    SketchParams,
    SketchWindow,
    SpaceSaving,
    key_digest,
)
from repro.service.tokens import SketchSaturationMonitor

#: prior traffic: (key index, count) pairs recorded before the run.
prior = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 30)), max_size=25
)


def _cells(window: SketchWindow) -> list[tuple]:
    return [
        (cell.epoch, cell.total, cell.throttled,
         cell.sketch.to_bytes(), cell.hitters.to_bytes())
        for cell in window._cells
    ]


class TestSketchAddAt:
    @given(history=prior, key=st.integers(0, 12), k=st.integers(0, 60))
    def test_count_k_equals_k_unit_adds(self, history, key, k):
        batch = CountMinSketch(64, 4, seed=3)
        units = CountMinSketch(64, 4, seed=3)
        for sketch in (batch, units):
            for other, count in history:
                sketch.add(f"k-{other}", count)
        positions = batch.positions(key_digest(f"k-{key}"))
        estimate = batch.add_at(positions, k)
        unit_estimates = [units.add_at(positions, 1) for _ in range(k)]
        assert batch.to_bytes() == units.to_bytes()
        assert estimate == (
            unit_estimates[-1] if k else units.estimate_at(positions)
        )


class TestSpaceSavingAdd:
    @given(
        history=prior,
        key=st.integers(0, 12),
        k=st.integers(1, 60),
        capacity=st.integers(1, 6),
    )
    def test_count_k_equals_k_unit_adds(self, history, key, k, capacity):
        batch, units = SpaceSaving(capacity), SpaceSaving(capacity)
        for summary in (batch, units):
            for other, count in history:
                summary.add(f"k-{other}", count)
        batch.add(f"k-{key}", k)
        for _ in range(k):
            units.add(f"k-{key}", 1)
        assert batch.to_bytes() == units.to_bytes()

    def test_eviction_from_a_full_table(self):
        batch, units = SpaceSaving(2), SpaceSaving(2)
        for summary in (batch, units):
            summary.add("a", 5)
            summary.add("b", 3)
        batch.add("c", 4)
        for _ in range(4):
            units.add("c")
        assert batch.to_bytes() == units.to_bytes()
        # "b" (the minimum) went; "c" inherited its 3 as count and error.
        assert batch.to_bytes() == b"ss:2:12:a=5~0;c=7~3"


def _window(history: list[tuple[int, int]], top_k: int) -> SketchWindow:
    """A window that has seen ``history`` (the sketch's counters are a
    numpy view of its array, so windows are rebuilt, never deep-copied).
    """
    window = SketchWindow(1.0, params=SketchParams(top_k=top_k))
    for other, count in history:
        window.record(0.1, True, key=f"k-{other}", count=count)
    return window


def _brute_unpromoted(probe: SketchWindow, now, key, positions, k) -> int:
    """Unit records until one promotes ``key`` (adds to its summary
    count)."""
    for i in range(k):
        epoch = int(now / probe._epoch_len)
        cell = probe._cells[epoch % probe.epochs]
        before = cell.hitters.estimate(key) if cell.epoch == epoch else 0
        probe.record(now, False, key=key, positions=positions)
        if cell.hitters.estimate(key) != before:
            return i
    return k


class TestWindowRun:
    @given(
        history=prior,
        key=st.integers(0, 12),
        k=st.integers(0, 80),
        top_k=st.sampled_from([1, 2, 3, 8]),
        now=st.sampled_from([0.1, 0.3, 2.05]),
        admitted=st.booleans(),
    )
    def test_split_at_promotion_equals_k_unit_records(
        self, history, key, k, top_k, now, admitted
    ):
        units, split = _window(history, top_k), _window(history, top_k)
        name = f"k-{key}"
        positions = units.positions(name)
        unpromoted = split.unpromoted(now, positions, k)
        assert unpromoted == _brute_unpromoted(
            _window(history, top_k), now, name, positions, k
        )
        for _ in range(k):
            units.record(now, admitted, key=name, positions=positions)
        for count in (unpromoted, k - unpromoted):
            if count:
                split.record(
                    now, admitted, key=name, positions=positions, count=count
                )
        assert _cells(split) == _cells(units)

    @pytest.mark.parametrize("top_k", [1, 2, 8])
    def test_monitor_run_equals_unit_records(self, top_k):
        def monitor() -> SketchSaturationMonitor:
            return SketchSaturationMonitor(
                window=1.0, overload_ratio=0.5, min_events=4,
                clock=lambda: 0.0, params=SketchParams(top_k=top_k),
            )

        run, units = monitor(), monitor()
        for other in range(6):  # a crowd the flooder must outgrow
            for m in (run, units):
                m.record(True, f"c-{other}", count=7, now=0.2)
        positions = run.positions("bot")
        for admitted, k in ((True, 3), (False, 40), (True, 1)):
            run.record(admitted, "bot", positions, count=k, now=0.2)
            for _ in range(k):
                units.record(admitted, "bot", positions, now=0.2)
        assert _cells(run._window) == _cells(units._window)


class TestWholeCountPin:
    def test_record_count_tests_promotion_once(self):
        """The DES records a client's whole tick as ``record(count=c)``,
        which tests promotion once, on the total.  That is not ``c``
        unit records, and must stay so: the DES event-log digest
        (tests/cloudsim/test_replay_digest.py) depends on it."""
        whole, units = _window([], 2), _window([], 2)
        for window in (whole, units):
            window.record(0.1, False, key="b", count=10)
        whole.record(0.1, False, key="a", count=12)
        for _ in range(12):
            units.record(0.1, False, key="a")
        live = whole._cells[0]
        # 12 >= 22 / 2: one test, passed, all twelve land in the summary.
        assert live.hitters.to_bytes() == b"ss:2:22:a=12~0;b=10~0"
        # One at a time the first nine fall short (i < (10 + i) / 2).
        assert units._cells[0].hitters.to_bytes() == b"ss:2:22:a=3~0;b=10~0"
