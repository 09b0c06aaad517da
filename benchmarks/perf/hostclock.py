"""Host-speed probe: seconds of a reference host, not of this one.

The benchmark runs on a few cores of a shared machine whose speed
swings by tens of percent for minutes at a time, and CPU time inflates
with wall time, so no statistic taken inside one run cancels it.  This
probe times a fixed kernel (a *lap*) ten times a second for as long as
a workload runs, from an interval-timer signal, so the lap runs on the
workload's own thread and core.  A lap is what the workloads spend
their time on: interpreter bytecode, and one-byte round trips through
a socket pair for the kernel's share of a request.  A lap that takes
twice the reference time says the host ran at half the reference speed
just then, and a stretch of wall time is converted to *reference
seconds* by the mean speed of the laps inside it.  The kernel is the
benchmark's own and never changes with the program, so a slower
program still reads slower; only the host's share of a swing is
divided out.

A lap takes about 0.4 ms, so the probe costs the workload about 0.4 %
of its time, the same on every commit.
"""

from __future__ import annotations

import signal
import socket
import time
from statistics import fmean

__all__ = ["HostClock", "REFERENCE_LAP_S"]

#: Loop iterations and socket round trips of one lap; about equal
#: shares of its time.
LAP_ITERATIONS = 5_000
LAP_ROUND_TRIPS = 120
#: Lap time that defines speed 1: the host the baseline was measured
#: on, in its calm phase.
REFERENCE_LAP_S = 0.0004
#: Seconds between two laps.
INTERVAL = 0.1


class HostClock:
    """Context manager that samples host speed until it exits.

    Main thread only: it owns ``SIGALRM`` and the real-time interval
    timer while it is open.
    """

    def __init__(self) -> None:
        #: (``time.perf_counter()`` at the end of the lap, lap seconds)
        self.laps: list[tuple[float, float]] = []

    def sample(self, *_signal_args: object) -> None:
        """Run one lap now (the clock must be open)."""
        near, far = self._near, self._far
        started = time.perf_counter()
        x = 0
        for i in range(LAP_ITERATIONS):
            x += i * i % 7
        for _ in range(LAP_ROUND_TRIPS):
            near.send(b"x")
            far.recv(1)
        ended = time.perf_counter()
        self.laps.append((ended, ended - started))

    def __enter__(self) -> "HostClock":
        self._near, self._far = socket.socketpair()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._near.close()
        self._far.close()

    def speed(self, since: float, until: float) -> float:
        """Mean host speed over ``[since, until]`` (``perf_counter``
        stamps); 1 is the reference host, 0.5 one half as fast.  A
        stretch too short to hold a lap takes the lap nearest to it."""
        inside = [
            REFERENCE_LAP_S / lap
            for stamp, lap in self.laps
            if since <= stamp <= until
        ]
        if inside:
            return fmean(inside)
        middle = (since + until) / 2.0
        _, lap = min(self.laps, key=lambda entry: abs(entry[0] - middle))
        return REFERENCE_LAP_S / lap

    def seconds(self, since: float, until: float) -> float:
        """Reference seconds the host got through between two stamps."""
        return (until - since) * self.speed(since, until)
