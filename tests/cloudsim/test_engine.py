"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloudsim.engine import Event, SimulationError, Simulator, every


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, second)

        def second():
            log.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        times = []
        for delay in delays:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run_until(5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        sim.run_until(20.0)
        assert log == ["early", "late"]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        sim.run()
        assert log == []
        assert sim.events_processed == 0

    def test_max_events_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.001, storm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until(1e9, max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run_until(100.0)

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="already running"):
            sim.run()


class TestEvery:
    def test_periodic_fires_until_stopped(self):
        sim = Simulator()
        log = []
        stop = every(sim, 1.0, lambda: log.append(sim.now))
        sim.run_until(3.5)
        assert log == [1.0, 2.0, 3.0]
        stop()
        sim.run_until(10.0)
        assert log == [1.0, 2.0, 3.0]

    def test_jitter_applied(self):
        sim = Simulator()
        log = []
        every(sim, 1.0, lambda: log.append(sim.now), jitter=lambda: 0.5)
        sim.run_until(4.0)
        assert log == [1.5, 3.0]


#: One planted event: (delay, children it schedules when it fires, index
#: of an earlier-scheduled event it cancels).  Few distinct delays, and
#: 0.0 among them, so ties and same-timestamp children are the norm.
_NODES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
        st.integers(0, 3),
        st.none() | st.integers(0, 60),
    ),
    min_size=1,
    max_size=80,
)


class TestHeapOrdering:
    @given(_NODES, st.integers(1, 12))
    def test_execution_order_is_sorted_time_seq(self, nodes, roots):
        sim = Simulator()
        unplanted = iter(nodes)
        scheduled: list[Event] = []
        due: list[float] = []
        fired: list[int] = []
        dropped: set[int] = set()

        def plant(node) -> None:
            delay, children, victim = node
            ident = len(scheduled)

            def fire() -> None:
                fired.append(ident)
                for child in itertools.islice(unplanted, children):
                    plant(child)
                if (
                    victim is not None
                    and victim < len(scheduled)
                    and victim not in fired
                ):
                    scheduled[victim].cancel()
                    dropped.add(victim)

            due.append(sim.now + delay)
            scheduled.append(sim.schedule(delay, fire))

        for node in itertools.islice(unplanted, roots):
            plant(node)
        sim.run()

        assert [event.seq for event in scheduled] == list(
            range(len(scheduled))
        )
        assert [event.time for event in scheduled] == due
        expected = sorted(
            (i for i in range(len(scheduled)) if i not in dropped),
            key=lambda i: (due[i], i),
        )
        assert fired == expected
        assert sim.events_processed == len(expected)
        assert sim.pending_events == 0

    def test_same_time_unorderable_actions_run_fifo(self):
        # Entries tie on time; were ``seq`` ever equal too, comparing
        # two lambdas would raise TypeError inside the heap.
        sim = Simulator()
        log = []
        for index in range(2_500):
            sim.schedule(1.0, lambda index=index: log.append(index))
        sim.run()
        assert log == list(range(2_500))


class TestEventHandle:
    def test_label_parameter_is_gone(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule(1.0, lambda: None, label="x")
        with pytest.raises(TypeError):
            sim.schedule_at(1.0, lambda: None, label="x")
        with pytest.raises(TypeError):
            every(sim, 1.0, lambda: None, label="x")
        assert sim.pending_events == 0

    def test_time_seq_cancelled_are_read_only_properties(self):
        sim = Simulator()
        sim.run_until(2.0)
        first = sim.schedule(1.5, lambda: None)
        second = sim.schedule_at(3.0, lambda: None)
        assert (first.time, first.seq, first.cancelled) == (3.5, 0, False)
        assert (second.time, second.seq, second.cancelled) == (3.0, 1, False)
        second.cancel()
        assert second.cancelled and not first.cancelled
        for name in ("time", "seq", "cancelled", "label"):
            with pytest.raises(AttributeError):
                setattr(first, name, 0)

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        log = []
        handles = []

        def cancel_self():
            handles[0].cancel()
            log.append("self")

        handles.append(sim.schedule(1.0, cancel_self))
        handles.append(sim.schedule(2.0, lambda: log.append("later")))
        sim.run_until(1.5)
        handles[0].cancel()
        sim.run()
        assert log == ["self", "later"]
        assert sim.events_processed == 2


class TestMaxEventsIsPerCall:
    def test_cap_does_not_count_earlier_calls(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run_until(2.0, max_events=5)
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run_until(4.0, max_events=5)  # lifetime 6 > 5: raised before
        assert sim.events_processed == 6
        assert sim.now == 4.0

    def test_draining_exactly_the_cap_is_not_a_runaway(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_only_an_event_still_due_trips_the_cap(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None).cancel()  # tombstone, not work
        late = sim.schedule(9.0, lambda: None)
        sim.run_until(5.0, max_events=3)  # ``late`` lies beyond end_time
        assert sim.events_processed == 3
        with pytest.raises(SimulationError, match="max_events=0"):
            sim.run_until(9.0, max_events=0)
        assert sim.events_processed == 3
        assert sim.now == 5.0
        late.cancel()
        sim.run_until(9.0, max_events=0)
        assert sim.now == 9.0
