"""Epoch-rotated sketch window: expiry, tallies, fixed memory."""

from __future__ import annotations

import hashlib
import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detect import SketchParams, SketchWindow, key_digest


def _window(window: float = 1.0, epochs: int = 4) -> SketchWindow:
    return SketchWindow(window, params=SketchParams(), epochs=epochs)


class TestTallies:
    def test_counts_and_throttle_ratio(self):
        window = _window()
        for admitted in (True, False, False, True):
            window.record(0.1, admitted, key="c-1")
        assert window.counts(0.1) == (4, 2)
        assert window.throttle_ratio(0.1) == pytest.approx(0.5)

    def test_record_without_key_moves_tallies_only(self):
        window = _window()
        window.record(0.1, True)
        window.record(0.1, False)
        assert window.counts(0.1) == (2, 1)
        assert window.heavy_hitters(0.1) == []

    def test_weighted_record_counts_every_packet(self):
        window = _window()
        window.record(0.1, False, key="naive-fleet", count=500)
        assert window.counts(0.1) == (500, 500)
        assert window.estimate(0.1, "naive-fleet") >= 500


class TestScalarStreamGolden:
    #: sha256 of the state checkpoints below, captured at commit
    #: 8e7b5e6 — before ``record`` moved off numpy scalar indexing.
    GOLDEN = (
        "5f7f9f0cd2cc9faaf3fca450b35e9c2188b8cc4a7c3995bcfe1692e451f6bea3"
    )

    def test_seeded_stream_leaves_the_golden_state(self):
        """50k mixed requests through ``record`` — key, key+positions,
        positions-only and tally-only forms, weighted adds, ~40 epoch
        rotations, promotions and evictions — must leave every cell's
        sketch bytes, summary and tallies exactly as the pre-rewrite
        implementation did."""
        rng = random.Random(20140623)
        window = _window(window=1.0, epochs=4)
        running = hashlib.sha256()
        now = 0.0
        for step in range(50_000):
            now += rng.random() * 0.0004
            key = (
                f"bot-{rng.randrange(3)}"
                if rng.random() < 0.5
                else f"c-{rng.randrange(400)}"
            )
            admitted = rng.random() < 0.7
            count = rng.randrange(2, 40) if rng.random() < 0.01 else 1
            form = rng.random()
            if form < 0.6:
                window.record(now, admitted, key=key, count=count)
            elif form < 0.75:
                window.record(
                    now, admitted, key=key,
                    positions=window.positions(key), count=count,
                )
            elif form < 0.9:
                window.record(
                    now, admitted, positions=window.positions(key),
                    count=count,
                )
            else:
                window.record(now, admitted, count=count)
            if step % 2_500 == 2_499:
                for cell in window._cells:
                    running.update(
                        f"{cell.epoch}:{cell.total}:{cell.throttled}|"
                        .encode()
                    )
                    running.update(cell.hitters.to_bytes())
                    running.update(cell.sketch.to_bytes())
        assert running.hexdigest() == self.GOLDEN


# One request: (seconds since the last one, key index or None, count,
# admitted).  Steps up to 0.9 s on a 1 s / 4-epoch window cross epoch
# boundaries, skip cells and wrap the ring within a few events.
requests = st.lists(
    st.tuples(
        st.floats(0.0, 0.9),
        st.one_of(st.none(), st.integers(0, 30)),
        st.integers(0, 40),
        st.booleans(),
    ),
    min_size=1, max_size=150,
)


def _state(window: SketchWindow, now: float) -> tuple:
    return (
        [
            (cell.epoch, cell.total, cell.throttled,
             cell.sketch.to_bytes(), cell.hitters.to_bytes())
            for cell in window._cells
        ],
        window.counts(now),
        window.heavy_hitters(now),
    )


class TestPositionsEquivalence:
    @given(stream=requests)
    def test_held_positions_leave_the_state_hashing_would(self, stream):
        """``positions=`` is a cache of ``key=``, never a second
        behaviour: one stream through both forms leaves equal bytes in
        every cell, equal tallies, equal heavy hitters."""
        by_key = _window(window=1.0, epochs=4)
        by_positions = _window(window=1.0, epochs=4)
        held = {
            f"k-{i}": by_positions.positions(f"k-{i}") for i in range(31)
        }
        now = 0.0
        for step, idx, count, admitted in stream:
            now += step
            key = None if idx is None else f"k-{idx}"
            by_key.record(now, admitted, key=key, count=count)
            by_positions.record(
                now, admitted, key=key, positions=held.get(key),
                count=count,
            )
            assert _state(by_positions, now) == _state(by_key, now)

    def test_positions_are_the_same_in_every_cell(self):
        window = _window()
        held = window.positions("c-1")
        assert all(
            cell.sketch.positions(key_digest("c-1")) == held
            for cell in window._cells
        )


class TestExpiry:
    def test_window_slides_events_out(self):
        window = _window(window=1.0, epochs=4)
        window.record(0.0, False, key="bot")
        assert window.counts(0.5) == (1, 1)
        # One full window later the event has rotated out (resolution
        # is one epoch, so give it the extra quarter).
        assert window.counts(1.5) == (0, 0)
        assert window.estimate(1.5, "bot") == 0
        assert window.heavy_hitters(1.5) == []

    def test_stale_cell_is_cleared_on_reuse(self):
        window = _window(window=1.0, epochs=2)
        window.record(0.0, False, key="old")
        # Far in the future the ring position is reused; the stale
        # tally must not leak into the fresh epoch.
        window.record(10.0, True, key="new")
        assert window.counts(10.0) == (1, 0)

    def test_ring_keeps_exactly_one_window_of_epochs(self):
        window = _window(window=1.0, epochs=4)
        for step in range(8):
            window.record(step * 0.25, False, key="bot")
        # Eight one-event epochs streamed through a four-cell ring:
        # only the last window's worth remains visible.
        assert window.counts(7 * 0.25) == (4, 4)


class TestHeavyHitters:
    def test_flooder_dominates_the_report(self):
        window = _window()
        for key in ["bot-1"] * 60 + [f"c-{i}" for i in range(40)]:
            window.record(0.1, True, key=key)
        top = window.heavy_hitters(0.1, 1)
        assert top[0].key == "bot-1"
        assert top[0].count >= 60

    def test_scalar_promotion_finds_the_flooder_too(self):
        window = _window()
        for i in range(100):
            key = "bot-1" if i % 2 == 0 else f"c-{i}"
            window.record(0.1, False, key=key)
        top = window.heavy_hitters(0.1, 1)
        assert top and top[0].key == "bot-1"

    def test_hitter_summary_merges_across_epochs(self):
        window = _window(window=1.0, epochs=4)
        for step in range(3):  # same talker across three epochs
            window.record(step * 0.25, False, key="bot", count=30)
        summary = window.hitter_summary(0.75)
        assert summary.estimate("bot") >= 90
        assert summary.total == 90

    def test_digest_without_key_skips_attribution(self):
        window = _window()
        positions = window.positions("a")
        for i in range(50):
            window.record(0.1, i >= 10, positions=positions)
        assert window.counts(0.1) == (50, 10)
        assert window.estimate(0.1, "a") == 50
        assert window.heavy_hitters(0.1) == []


class TestStateAndValidation:
    def test_state_bytes_flat_under_load(self):
        # Fixed sketch matrices + bounded top-k tables: within a couple
        # hundred bytes of the empty detector, whether the stream draws
        # its keys from a population of 10^3 or of 10^6 (7919 is
        # coprime to both, so the larger stream never repeats a key).
        for population, events in ((10**3, 2_000), (10**6, 200_000)):
            window = _window()
            for i in range(events):
                window.record(0.1, True, key=f"c-{i * 7919 % population}")
            loaded = window.state_bytes()
            assert loaded - _window().state_bytes() < 4 * 8 * (16 + 16)

    def test_reset_restores_empty_state(self):
        window = _window()
        window.record(0.1, False, key="bot", count=50)
        window.reset()
        assert window.counts(0.1) == (0, 0)
        assert window.heavy_hitters(0.1) == []

    @pytest.mark.parametrize(
        "kwargs", [{}, {"key": "a"}, {"positions": array("H", [0, 200])}]
    )
    def test_negative_count_leaves_the_window_untouched(self, kwargs):
        """A rejected call is rejected whole: the tallies used to move
        before the sketch raised, and with neither key nor positions
        the negative count was accepted."""
        window = _window()
        for i in range(20):
            window.record(0.1 * i, i % 3 == 0, key=f"c-{i % 4}")
        before = _state(window, 2.1)
        with pytest.raises(ValueError):  # 2.1 s: a cell due for reuse
            window.record(2.1, False, count=-1, **kwargs)
        assert _state(window, 2.1) == before

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            SketchWindow(0.0)
        with pytest.raises(ValueError):
            SketchWindow(1.0, epochs=0)

    def test_params_sizing_matches_theory(self):
        params = SketchParams(epsilon=0.02, delta=0.01)
        assert params.width == 136  # ceil(e / 0.02)
        assert params.depth == 5  # ceil(ln 100)
        assert params.state_bytes() == 136 * 5 * 8
        with pytest.raises(ValueError):
            SketchParams(epsilon=0.0)
        with pytest.raises(ValueError):
            SketchParams(delta=1.5)
        with pytest.raises(ValueError):
            SketchParams(top_k=0)
