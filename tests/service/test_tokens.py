"""Token bucket and saturation monitor under a fake clock."""

from __future__ import annotations

import pytest

from repro.service import SaturationMonitor, TokenBucket


class TestTokenBucket:
    def test_burst_admits_then_drains(self, clock):
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self, clock):
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        for _ in range(3):
            bucket.try_acquire()
        clock.advance(0.1)  # 1 token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self, clock):
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_tokens_property_reflects_level(self, clock):
        bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
        bucket.try_acquire()
        assert bucket.tokens == pytest.approx(3.0)

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive_parameters(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)

    def test_a_stale_now_credits_nothing(self, clock):
        # Once the bucket has refilled to t=10, a t=9 must neither add
        # tokens nor rewind the mark: rewinding it credited [9, 10] a
        # second time (51.0 at t=10).
        bucket = TokenBucket(rate=1.0, burst=100.0, clock=clock)
        clock.advance(10.0)
        assert bucket.try_acquire(50) == 50
        clock.now = 9.0  # the clock steps back
        assert bucket.try_acquire(0) == 0
        assert bucket.try_acquire(0, now=8.5) == 0
        assert (bucket.tokens, bucket._updated) == (50.0, 10.0)
        clock.now = 10.0
        assert bucket.tokens == 50.0
        clock.now = 10.5
        assert bucket.tokens == 50.5

    @pytest.mark.parametrize(
        "level, burst",
        [
            (0.9999999999999999, 5.0),
            (1.0, 5.0),
            (2.5, 5.0),
            (1e9, 1e9),  # the steady workloads' bucket
            (1e9 - 0.5, 1e9),
        ],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000])
    def test_n_at_one_instant_equals_n_single_calls(
        self, clock, level, burst, n
    ):
        grant = TokenBucket(rate=7.3, burst=burst, clock=clock)
        singles = TokenBucket(rate=7.3, burst=burst, clock=clock)
        grant._tokens = singles._tokens = level
        served = grant.try_acquire(n)
        assert served == sum(singles.try_acquire() for _ in range(n))
        assert served == min(n, int(level))
        assert grant._tokens.hex() == singles._tokens.hex()

    def test_chunk_grants_track_single_calls_through_refills(self, clock):
        # Uneven strides refill fractional tokens between chunks; within
        # a chunk the clock stands still.
        grant = TokenBucket(rate=7.3, burst=2.5, clock=clock)
        singles = TokenBucket(rate=7.3, burst=2.5, clock=clock)
        for step, n in [(0.0, 4), (0.05, 1), (0.13, 3), (0.0, 2),
                        (0.41, 9), (0.02, 1), (0.3, 2), (0.07, 5)]:
            clock.advance(step)
            assert grant.try_acquire(n, now=clock.now) == sum(
                singles.try_acquire() for _ in range(n)
            )
            assert grant._tokens.hex() == singles._tokens.hex()


class TestSaturationMonitor:
    def _monitor(self, clock, min_events: int = 4) -> SaturationMonitor:
        return SaturationMonitor(
            window=1.0, overload_ratio=0.5, min_events=min_events,
            clock=clock,
        )

    def test_quiet_below_min_events(self, clock):
        monitor = self._monitor(clock)
        for _ in range(3):
            monitor.record(admitted=False)
        assert not monitor.saturated()  # 100% throttled but too few events

    def test_saturates_above_ratio(self, clock):
        monitor = self._monitor(clock)
        for admitted in (True, False, False, False):
            monitor.record(admitted=admitted)
        assert monitor.throttle_ratio() == pytest.approx(0.75)
        assert monitor.saturated()

    def test_calm_below_ratio(self, clock):
        monitor = self._monitor(clock)
        for admitted in (True, True, True, False):
            monitor.record(admitted=admitted)
        assert not monitor.saturated()

    def test_old_events_slide_out_of_window(self, clock):
        monitor = self._monitor(clock)
        for _ in range(4):
            monitor.record(admitted=False)
        assert monitor.saturated()
        clock.advance(1.5)
        assert monitor.counts() == (0, 0)
        assert not monitor.saturated()

    def test_reset_clears_state(self, clock):
        monitor = self._monitor(clock)
        for _ in range(4):
            monitor.record(admitted=False)
        monitor.reset()
        assert monitor.counts() == (0, 0)
        assert monitor.throttle_ratio() == 0.0

    def test_rejects_bad_parameters(self, clock):
        with pytest.raises(ValueError):
            SaturationMonitor(
                window=0.0, overload_ratio=0.5, min_events=1, clock=clock
            )
        with pytest.raises(ValueError):
            SaturationMonitor(
                window=1.0, overload_ratio=1.5, min_events=1, clock=clock
            )
