"""Discrete-event simulation core for the cloud architecture model.

A deliberately small, dependency-free DES kernel: events are ``(time,
sequence)``-ordered callbacks on a binary heap.  Everything in
:mod:`repro.cloudsim` — DNS lookups, load-balancer redirects, HTTP
requests, WebSocket pushes, replica boot-ups, bot floods — is scheduled
through one :class:`Simulator` instance, which makes causality trivially
auditable (tests assert the clock never runs backwards).

A heap entry is the list ``[time, seq, action]``.  It is a list, not an
ordered dataclass, so that every sift of :mod:`heapq` orders entries with
the built-in lexicographic list comparison in C instead of calling a
Python-level ``__lt__`` some 17 times per event.  ``seq`` is unique, so
a comparison is always settled by ``(time, seq)`` and ``action`` — a
callable, un-orderable — is never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling misuse (negative delays, running twice, ...)."""


class Event(list):
    """A scheduled callback, laid out as ``[time, seq, action]``.

    Ordering is by ``(time, seq)``; the monotonically increasing sequence
    number makes simultaneous events FIFO and the heap ordering total,
    and being unique it keeps list comparison from ever reaching
    ``action``.  The entry stays a plain list (``__slots__ = ()``, no
    ``__lt__``) so the heap orders it in C; ``action`` is ``None`` once
    cancelled.  Callers hold an ``Event`` only to :meth:`cancel` it or to
    read the properties below.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap, inert)."""
        self[2] = None


class Simulator:
    """Event queue + clock.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, lambda: print("hello"))
        sim.run_until(10.0)
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and reports)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still in the heap (including cancelled tombstones)."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        event = Event((self.now + delay, next(self._seq), action))
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        return self.schedule(time - self.now, action)

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Process events in order until the clock passes ``end_time``.

        Args:
            end_time: absolute simulation time to stop at; the clock is
                advanced to exactly ``end_time`` when the queue drains or
                the next event lies beyond it.
            max_events: optional hard cap on the events *this call* may
                execute, a guard against accidental event storms in
                tests.  Raises only if a further event is still due at
                or before ``end_time`` once the cap is spent.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            queue = self._queue
            limit = (
                None if max_events is None
                else self._events_processed + max_events
            )
            while queue:
                time, _, action = queue[0]
                if time > end_time:
                    break
                if action is None:  # cancelled tombstone
                    heapq.heappop(queue)
                    continue
                if self._events_processed == limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"(simulation runaway at t={self.now:.3f})"
                    )
                heapq.heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        f"time went backwards: {time} < {self.now}"
                    )
                self.now = time
                self._events_processed += 1
                action()
            self.now = max(self.now, end_time)
        finally:
            self._running = False

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        self.run_until(float("inf"), max_events=max_events)


def every(
    sim: Simulator,
    interval: float,
    action: Callable[[], None],
    jitter: Callable[[], float] | None = None,
) -> Callable[[], None]:
    """Schedule ``action`` periodically; returns a stop function.

    ``jitter`` (if given) returns an extra delay added to each interval —
    used to desynchronize client request loops.
    """
    stopped = False

    def tick() -> None:
        if stopped:
            return
        action()
        delay = interval + (jitter() if jitter is not None else 0.0)
        sim.schedule(max(1e-9, delay), tick)

    def stop() -> None:
        nonlocal stopped
        stopped = True

    sim.schedule(interval + (jitter() if jitter is not None else 0.0), tick)
    return stop
