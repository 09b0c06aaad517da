"""Recording load generator: every benign latency, plus a fine watcher.

The stock :class:`repro.service.loadgen.LoadGenerator` keeps window
sums only, so no percentile can be taken from it, and the harness polls
for quarantine twice a second.  This subclass keeps each benign
request's latency and runs a 10 ms watcher that stamps the moment the
defense reports quarantine and measures how late its own ticks fire —
the generator shares the event loop with the service, so a stalled
loop delays both.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.service.loadgen import LoadConfig, LoadGenerator
from repro.sim.qos import QoSWindow

__all__ = ["RecordingLoadGenerator", "WATCH_INTERVAL"]

WATCH_INTERVAL = 0.01


class RecordingLoadGenerator(LoadGenerator):
    """Closed-loop load that remembers every benign outcome.

    Args:
        probe: polled every :data:`WATCH_INTERVAL`; returns the shuffle
            count once the defense reports quarantine, ``None`` before.
    """

    def __init__(
        self,
        config: LoadConfig,
        control_host: str,
        control_port: int,
        probe: Callable[[], int | None] = lambda: None,
    ) -> None:
        super().__init__(config, control_host, control_port)
        self._probe = probe
        #: send → reply seconds of every benign request that got a reply
        self.latencies: list[float] = []
        #: benign requests that got no reply within ``request_timeout``
        self.timeouts = 0
        #: seconds from the start of :meth:`run` to reported quarantine
        self.quarantined_after: float | None = None
        self.quarantine_shuffles: int | None = None
        #: summed and worst lateness of the watcher's own ticks
        self.stall_total = 0.0
        self.stall_max = 0.0
        #: (time, replies so far) at every watcher tick
        self._timeline: list[tuple[float, int]] = []

    def _record(self, ok: bool, latency: float | None) -> None:
        super()._record(ok, latency)
        if latency is None:
            self.timeouts += 1
        else:
            self.latencies.append(latency)

    @property
    def replies(self) -> int:
        """Replies received by all clients, benign and bot."""
        return len(self.latencies) + self.bot_served + self.bot_throttled

    def reply_stretches(
        self, interval: float = 1.0
    ) -> list[tuple[float, float, int]]:
        """``(since, until, replies)`` over consecutive stretches of the
        run, each ``interval`` seconds long by ``time.perf_counter``.
        The median of their rates shrugs off a host stall that a
        whole-run average would absorb."""
        stretches = []
        since, base = self._timeline[0]
        for now, replies in self._timeline:
            if now - since >= interval:
                stretches.append((since, now, replies - base))
                since, base = now, replies
        return stretches

    async def _watch(self) -> None:
        started = time.perf_counter()
        self._timeline.append((started, self.replies))
        due = started + WATCH_INTERVAL
        while True:
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            now = time.perf_counter()
            late = now - due
            self.stall_total += late
            self.stall_max = max(self.stall_max, late)
            due = now + WATCH_INTERVAL
            self._timeline.append((now, self.replies))
            if self.quarantined_after is None:
                shuffles = self._probe()
                if shuffles is not None:
                    self.quarantined_after = now - started
                    self.quarantine_shuffles = shuffles

    async def run(
        self,
        duration: float,
        until: Callable[[], bool] | None = None,
        settle: float = 2.0,
    ) -> list[QoSWindow]:
        watcher = asyncio.create_task(self._watch())
        try:
            return await super().run(duration, until=until, settle=settle)
        finally:
            watcher.cancel()
            await asyncio.gather(watcher, return_exceptions=True)
