"""Sliding-window detection state as a ring of epoch sketches.

A true sliding window over a stream needs per-event timestamps — the
deque the exact :class:`repro.service.tokens.SaturationMonitor` keeps,
whose memory grows with request rate.  :class:`SketchWindow` trades a
little temporal resolution for fixed memory: the window is split into
``epochs`` equal cells, each holding one admitted/throttled tally, one
:class:`~repro.detect.sketch.CountMinSketch`, and one
:class:`~repro.detect.heavyhitters.SpaceSaving` summary.  Recording
touches only the live cell; queries aggregate the cells still inside
the window; rotation clears cells whose epoch has slid out.  Memory is
``epochs × (sketch + summary)`` bytes — constant in both request rate
and client count.

Clocks are explicit everywhere (``now`` arguments): the window works
identically on the service's monotonic clock and cloudsim's sim-time,
and no wall-clock read can enter the sim layers through it.

Ingestion is request-at-a-time (:meth:`record`), two-stage: every
request lands in the live cell's sketch, and only keys the sketch
already ranks at heavy-hitter mass are promoted into the space-saving
summary, which then tracks talkers rather than the benign long tail.
All cells share one hash family, so a replica hashes a client once
(:meth:`positions`, kept as its whitelist entry) for every :meth:`record`.
A live replica lands a run of one client's requests at one instant in
at most two records, split where the client's promotion would start
(:meth:`unpromoted`); ``record(count=c)`` tests promotion once, on the
whole count, which is what cloudsim's per-tick aggregates mean.
"""

from __future__ import annotations

from array import array

from .heavyhitters import HeavyHitter, SpaceSaving
from .params import SketchParams
from .sketch import CountMinSketch, key_digest

__all__ = ["SketchWindow"]


class _Cell:
    """One epoch's worth of detection state."""

    __slots__ = ("epoch", "total", "throttled", "sketch", "hitters")

    def __init__(self, params: SketchParams) -> None:
        self.epoch = -1  # epoch index currently stored; -1 = empty
        self.total = 0
        self.throttled = 0
        self.sketch = CountMinSketch(
            params.width, params.depth, seed=params.seed
        )
        self.hitters = SpaceSaving(params.top_k)

    def clear(self, epoch: int) -> None:
        self.epoch = epoch
        self.total = 0
        self.throttled = 0
        self.sketch.reset()
        self.hitters.reset()


class SketchWindow:
    """Fixed-memory sliding window of saturation + heavy-hitter state.

    Args:
        window: window length in seconds (same semantics as the exact
            monitor's ``window``).
        params: sketch sizing; all cells share ``params.seed`` so their
            sketches stay merge-compatible.
        epochs: ring cells; temporal resolution is ``window / epochs``
            (a query may include up to one extra epoch of history).
    """

    __slots__ = ("window", "params", "epochs", "_epoch_len", "_cells",
                 "_top_k")

    def __init__(
        self,
        window: float,
        params: SketchParams | None = None,
        epochs: int = 4,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.window = window
        self.params = params if params is not None else SketchParams()
        self.epochs = epochs
        self._epoch_len = window / epochs
        self._cells = [_Cell(self.params) for _ in range(epochs)]
        self._top_k = self.params.top_k

    # ------------------------------------------------------------------
    # rotation
    # ------------------------------------------------------------------
    def _active_cells(self, now: float) -> list[_Cell]:
        """Cells whose epoch still overlaps ``[now - window, now]``."""
        epoch = int(now / self._epoch_len)
        oldest = epoch - self.epochs + 1
        return [
            cell
            for cell in self._cells
            if oldest <= cell.epoch <= epoch
        ]

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def positions(self, key: str | bytes) -> array:
        """``key``'s sketch positions, the same in every cell: see
        :meth:`CountMinSketch.positions`.  Valid only for windows with
        equal ``(width, depth, seed)`` — a client that moves to another
        replica is hashed again by that replica's window."""
        return self._cells[0].sketch.positions(key_digest(key))

    def record(
        self,
        now: float,
        admitted: bool,
        key: str | None = None,
        positions: array | None = None,
        count: int = 1,
    ) -> None:
        """Record one request outcome (and optionally its source key).

        ``positions`` is :meth:`positions` of ``key`` where the caller
        holds it (the replicas do, from admission) and is trusted;
        without it the key is hashed here.  Positions without a key
        feed the sketch but not the summary; with neither, only the
        saturation tallies move.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        # The live cell: ``now``'s epoch, cleared if it held stale data.
        epoch = int(now / self._epoch_len)
        cell = self._cells[epoch % self.epochs]
        if cell.epoch != epoch:
            cell.clear(epoch)
        cell.total += count
        if not admitted:
            cell.throttled += count
        sketch = cell.sketch
        if positions is None:
            if key is None:
                return
            positions = self.positions(key)
        estimate = sketch.add_at(positions, count)
        if key is not None:
            # Promote only when the sketch already ranks the key at
            # heavy-hitter mass — the summary then tracks talkers, not
            # the benign long tail.
            if estimate >= sketch.total / self._top_k:
                cell.hitters.add(key, count)
            else:
                cell.hitters.total += count

    def unpromoted(self, now: float, positions: array, count: int) -> int:
        """How many of ``count`` unit :meth:`record` calls of one key
        (at ``positions``) at ``now`` would fail the promotion test
        before the first one passes; ``count`` when none would.

        The ``i``-th unit record tests ``e + i >= (n + i) / top_k``
        (``e`` the key's estimate and ``n`` the sketch total before the
        run): the estimate gains 1 a record and the threshold
        ``1/top_k <= 1``, so once passed the test passes for the rest of
        the run.  So ``count`` unit records equal one ``record(count=j)``
        of the ``j`` this returns (one failed test, as all ``j`` fail)
        and one ``record(count=count - j)`` of the rest (one passed test:
        the first of them promotes the key, the others only add to it).
        """
        epoch = int(now / self._epoch_len)
        cell = self._cells[epoch % self.epochs]
        if cell.epoch == epoch:
            estimate = cell.sketch.estimate_at(positions)
            total = cell.sketch.total
        else:  # record() will clear the stale cell first
            estimate = total = 0
        top_k = self._top_k
        # Smallest passing i in [1, count], or count + 1: the search
        # runs on the float test record() itself evaluates.
        low, high = 1, count + 1
        while low < high:
            mid = (low + high) // 2
            if estimate + mid >= (total + mid) / top_k:
                high = mid
            else:
                low = mid + 1
        return low - 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counts(self, now: float) -> tuple[int, int]:
        """``(total, throttled)`` over the live window."""
        total = 0
        throttled = 0
        for cell in self._active_cells(now):
            total += cell.total
            throttled += cell.throttled
        return total, throttled

    def throttle_ratio(self, now: float) -> float:
        total, throttled = self.counts(now)
        return throttled / total if total else 0.0

    def estimate(self, now: float, key: str | bytes) -> int:
        """Windowed frequency upper bound for ``key``."""
        positions = self.positions(key)
        return sum(
            cell.sketch.estimate_at(positions)
            for cell in self._active_cells(now)
        )

    def hitter_summary(self, now: float) -> SpaceSaving:
        """The live window's merged space-saving summary.

        Useful to callers that merge further (e.g. a system-wide view
        across replicas) — merging summaries is order-independent.
        """
        cells = self._active_cells(now)
        if not cells:
            return SpaceSaving(self.params.top_k)
        return SpaceSaving.merge_all(
            [cell.hitters for cell in cells],
            capacity=self.params.top_k,
        )

    def heavy_hitters(self, now: float, n: int | None = None) -> list[HeavyHitter]:
        """Top talkers over the live window (shard-merged summaries)."""
        return self.hitter_summary(now).top(
            n if n is not None else self.params.top_k
        )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def reset(self) -> None:
        for cell in self._cells:
            cell.epoch = -1
            cell.clear(-1)

    def state_bytes(self) -> int:
        """Current detector footprint: fixed sketch matrices + the
        bounded heavy-hitter tables."""
        return sum(
            cell.sketch.state_bytes() + cell.hitters.state_bytes()
            for cell in self._cells
        )
