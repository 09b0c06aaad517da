"""Discrete-event simulation core for the cloud architecture model.

A deliberately small, dependency-free DES kernel: events are ``(time,
sequence)``-ordered callbacks on a binary heap.  Everything in
:mod:`repro.cloudsim` — DNS lookups, load-balancer redirects, HTTP
requests, WebSocket pushes, replica boot-ups, bot floods — is scheduled
through one :class:`Simulator` instance, which makes causality trivially
auditable (tests assert the clock never runs backwards).

A heap entry is the tuple ``(time, seq, action)``, so every sift of
:mod:`heapq` orders entries with the built-in lexicographic tuple
comparison in C.  ``seq`` is unique, so a comparison is always settled
by ``(time, seq)`` and ``action`` — a callable, un-orderable — is never
compared.  An event cannot be cancelled: a component that may have to
abandon a callback checks its own state when the callback fires.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling misuse (negative delays, running twice, ...)."""


class Simulator:
    """Event queue + clock.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, lambda: print("hello"))
        sim.run_until(10.0)
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and reports);
        a call to :meth:`run_until` adds its own count when it returns."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Events still in the heap."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        heappush(self._queue, (self.now + delay, next(self._seq), action))

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at an absolute simulation time."""
        self.schedule(time - self.now, action)

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Process events in order until the clock passes ``end_time``.

        Args:
            end_time: absolute simulation time to stop at; a finite
                ``end_time`` leaves the clock at exactly ``end_time``
                when the queue drains or the next event lies beyond it.
                An infinite one leaves it at the last event executed.
            max_events: optional hard cap on the events *this call* may
                execute, a guard against accidental event storms in
                tests.  Raises only if a further event is still due at
                or before ``end_time`` once the cap is spent.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        processed = 0
        try:
            while queue and queue[0][0] <= end_time:
                if processed == max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"(simulation runaway at t={self.now:.3f})"
                    )
                time, _, action = heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        f"time went backwards: {time} < {self.now}"
                    )
                self.now = time
                processed += 1
                action()
            if end_time < float("inf"):
                self.now = max(self.now, end_time)
        finally:
            self._events_processed += processed
            self._running = False

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``); the
        clock stays at the last event executed."""
        self.run_until(float("inf"), max_events=max_events)
