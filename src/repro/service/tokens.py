"""Per-replica rate limiting and overload detection.

Two small real-time primitives back the live service's "attacked"
signal, the observable the whole control loop feeds on:

- :class:`TokenBucket` — the classic refill-at-rate limiter.  Every
  admitted request costs one token; a drained bucket means the replica
  is serving at capacity and further requests are throttled.
- :class:`SaturationMonitor` — a sliding-window throttle-ratio meter.
  The paper detects attacks as "sudden congestion" on a replica's load
  indicators; here the indicator is the fraction of recent requests the
  bucket had to reject.  A bot flooding its assigned replica drains the
  bucket and drives that fraction toward 1, while a replica carrying
  only benign clients (provisioned below capacity) stays near 0 — the
  separation that makes saturation a usable attack signal.
- :class:`SketchSaturationMonitor` — the same saturation verdict from
  fixed memory.  The exact monitor's deque grows with request rate; the
  sketch variant keeps the window in a :class:`repro.detect.SketchWindow`
  (epoch-rotated count-min sketches), so memory is constant in both
  rate and client count, and as a bonus it can name the window's top
  talkers — the per-replica heavy-hitter evidence the coordinator's
  confirmation sweep consumes.  Verdict semantics match the exact
  monitor (same ``overload_ratio`` / ``min_events`` thresholds) up to
  the window's epoch granularity; the equivalence is pinned by tests.

All take an injectable monotonic ``clock`` so unit tests can drive
them deterministically; the service itself runs them on
``time.monotonic`` (the ``service`` layer is exempt from the simulator
wall-clock ban — see the P4 rule scope in reprolint).
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import Callable

from ..detect import HeavyHitter, SketchParams, SketchWindow

__all__ = ["TokenBucket", "SaturationMonitor", "SketchSaturationMonitor"]


class TokenBucket:
    """Token-bucket rate limiter (``rate`` tokens/s, ``burst`` cap).

    Args:
        rate: steady-state refill rate in tokens per second.
        burst: bucket capacity — the largest burst admitted from idle.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self, now: float) -> None:
        # ``_updated`` only moves forward: a ``now`` older than the last
        # refill credits nothing, where rewinding the mark would credit
        # the interval since that ``now`` a second time.
        if now > self._updated:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now

    def try_acquire(self, n: int = 1, now: float | None = None) -> int:
        """Admit up to ``n`` requests arriving together at ``now``
        (default: read the clock); returns how many got a token, 0 when
        the bucket is drained.

        One call for ``n`` equals ``n`` single calls at the same instant:
        with no time elapsed a refill adds nothing, so both grant
        ``min(n, ⌊tokens⌋)``, and the level drops by the same float
        (``x - 1.0`` is exact for ``1 <= x < 2**53``).
        """
        self._refill(self._clock() if now is None else now)
        tokens = self._tokens
        granted = n if tokens >= n else int(tokens)
        self._tokens = tokens - granted
        return granted

    @property
    def tokens(self) -> float:
        """Current token level (after refilling to now)."""
        self._refill(self._clock())
        return self._tokens


class SaturationMonitor:
    """Sliding-window throttle-ratio overload detector.

    Args:
        window: window length in seconds.
        overload_ratio: throttled fraction at which :meth:`saturated`
            reports True.
        min_events: minimum observations inside the window before the
            signal may fire (an idle or freshly booted replica must not
            look attacked on one unlucky request).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        window: float,
        overload_ratio: float,
        min_events: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        if not 0.0 < overload_ratio <= 1.0:
            raise ValueError("overload_ratio must be within (0, 1]")
        self.window = window
        self.overload_ratio = overload_ratio
        self.min_events = min_events
        self._clock = clock
        self._events: deque[tuple[float, bool]] = deque()
        self._throttled_in_window = 0

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0][0] < horizon:
            _, throttled = events.popleft()
            if throttled:
                self._throttled_in_window -= 1

    def positions(self, client_id: str) -> None:
        """The exact monitor keys nothing by client: ``None``."""

    def record(
        self,
        admitted: bool,
        client_id: str | None = None,
        positions: None = None,
        count: int = 1,
        now: float | None = None,
    ) -> None:
        """Record ``count`` request outcomes (all admitted or all
        throttled) at ``now`` (default: read the clock).

        ``client_id`` and ``positions`` are accepted for interface
        parity with :class:`SketchSaturationMonitor` and ignored: the
        exact monitor measures saturation only, not who caused it.
        """
        del client_id, positions
        if now is None:
            now = self._clock()
        # Appended by request handlers, pruned by the detection sweep;
        # record()/counts() are fully synchronous (no await), so each
        # runs to completion before the loop switches tasks.
        event = (now, not admitted)
        if count == 1:
            # reprolint: disable=P9
            self._events.append(event)
        else:
            self._events.extend((event,) * count)
        if not admitted:
            self._throttled_in_window += count
        self._prune(now)

    def counts(self) -> tuple[int, int]:
        """(total, throttled) events currently inside the window."""
        self._prune(self._clock())
        return len(self._events), self._throttled_in_window

    def throttle_ratio(self) -> float:
        total, throttled = self.counts()
        if total == 0:
            return 0.0
        return throttled / total

    def saturated(self) -> bool:
        """True when the window shows sustained overload."""
        total, throttled = self.counts()
        if total < self.min_events:
            return False
        return throttled / total >= self.overload_ratio

    def reset(self) -> None:
        self._events.clear()
        self._throttled_in_window = 0


class SketchSaturationMonitor:
    """Fixed-memory drop-in for :class:`SaturationMonitor`.

    Same constructor thresholds, same verdict interface (``record`` /
    ``counts`` / ``throttle_ratio`` / ``saturated`` / ``reset``), but
    the window lives in epoch-rotated sketches instead of a per-event
    deque, so memory does not grow with request rate — and the monitor
    additionally knows *who* filled the window (:meth:`heavy_hitters`).

    Args:
        window: window length in seconds.
        overload_ratio: throttled fraction at which :meth:`saturated`
            reports True.
        min_events: minimum observations inside the window before the
            signal may fire.
        clock: monotonic time source (injectable for tests).
        params: sketch sizing (ε/δ/top-k/seed); defaults are fine for
            replica-scale traffic.
        epochs: window ring cells — temporal resolution of expiry.
    """

    def __init__(
        self,
        window: float,
        overload_ratio: float,
        min_events: int,
        clock: Callable[[], float] = time.monotonic,
        params: SketchParams | None = None,
        epochs: int = 4,
    ) -> None:
        if not 0.0 < overload_ratio <= 1.0:
            raise ValueError("overload_ratio must be within (0, 1]")
        self.window = window
        self.overload_ratio = overload_ratio
        self.min_events = min_events
        self._clock = clock
        self._window = SketchWindow(window, params=params, epochs=epochs)

    def positions(self, client_id: str) -> array:
        """``client_id``'s sketch key in this monitor's window (see
        :meth:`repro.detect.SketchWindow.positions`)."""
        return self._window.positions(client_id)

    def record(
        self,
        admitted: bool,
        client_id: str | None = None,
        positions: array | None = None,
        count: int = 1,
        now: float | None = None,
    ) -> None:
        """Record ``count`` request outcomes (all admitted or all
        throttled) at ``now`` (default: read the clock), attributed to
        ``client_id``.

        ``positions`` is :meth:`positions` of the client when the
        caller already holds it (backends compute it at admission);
        without it the window hashes ``client_id`` itself.

        ``count`` outcomes land as ``count`` unit records would, in at
        most two window records: the requests the window would not yet
        promote ``client_id`` into the summary for, then the rest
        (:meth:`repro.detect.SketchWindow.unpromoted`).

        Same single-event-loop discipline as the exact monitor: the
        update is synchronous (no await), so handlers cannot interleave
        mid-update.
        """
        if now is None:
            now = self._clock()
        window = self._window
        if count > 1 and client_id is not None:
            if positions is None:
                positions = window.positions(client_id)
            unpromoted = window.unpromoted(now, positions, count)
            if unpromoted:
                window.record(now, admitted, client_id, positions, unpromoted)
                count -= unpromoted
        if count:
            window.record(now, admitted, client_id, positions, count)

    def counts(self) -> tuple[int, int]:
        """(total, throttled) events currently inside the window."""
        return self._window.counts(self._clock())

    def throttle_ratio(self) -> float:
        total, throttled = self.counts()
        if total == 0:
            return 0.0
        return throttled / total

    def saturated(self) -> bool:
        """True when the window shows sustained overload."""
        total, throttled = self.counts()
        if total < self.min_events:
            return False
        return throttled / total >= self.overload_ratio

    def heavy_hitters(self, n: int | None = None) -> list[HeavyHitter]:
        """The window's top talkers (who is filling the bucket)."""
        return self._window.heavy_hitters(self._clock(), n)

    def state_bytes(self) -> int:
        """Detector memory footprint (constant in request rate)."""
        return self._window.state_bytes()

    def reset(self) -> None:
        self._window.reset()
