"""Count-min sketch: the guarantees the detection path stands on."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detect import CountMinSketch, key_digest

# A stream is a list of (key-index, count) pairs; small key spaces force
# collisions, large counts exercise the weighted paths.
streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 50)),
    min_size=1, max_size=200,
)


def _true_counts(stream) -> Counter:
    totals: Counter = Counter()
    for idx, count in stream:
        totals[f"k-{idx}"] += count
    return totals


class TestDigests:
    def test_digest_is_stable_and_64_bit(self):
        value = key_digest("client-1")
        assert value == key_digest("client-1")
        assert value == key_digest(b"client-1")
        assert 0 <= value < 2**64


class TestGuarantees:
    @given(streams)
    def test_estimate_never_undercounts(self, stream):
        sketch = CountMinSketch(width=32, depth=4)
        for idx, count in stream:
            sketch.add(f"k-{idx}", count)
        for key, true in _true_counts(stream).items():
            assert sketch.estimate(key) >= true

    @given(streams)
    def test_overestimate_within_epsilon_n(self, stream):
        """estimate - true <= e/width * N except with probability
        ~e^-depth per key; blake2b digests are data-independent, so the
        violation budget is the union bound with one key of slack."""
        sketch = CountMinSketch(width=64, depth=5)
        for idx, count in stream:
            sketch.add(f"k-{idx}", count)
        true = _true_counts(stream)
        bound = sketch.error_bound()
        violations = sum(
            1 for key, t in true.items()
            if sketch.estimate(key) - t > bound
        )
        delta = math.exp(-sketch.depth)
        assert violations <= math.ceil(delta * len(true)) + 1

    @given(streams)
    def test_total_tracks_stream_mass(self, stream):
        sketch = CountMinSketch(width=16, depth=3)
        for idx, count in stream:
            sketch.add(f"k-{idx}", count)
        assert sketch.total == sum(count for _, count in stream)

    def test_unseen_key_estimate_is_collision_noise_only(self):
        sketch = CountMinSketch(width=1024, depth=5)
        sketch.add("present", 100)
        # With one key in a wide sketch a disjoint key reads zero.
        assert sketch.estimate("absent") == 0


class TestMerge:
    @given(st.lists(streams, min_size=2, max_size=4))
    def test_merge_is_shard_order_independent(self, shards):
        def sketch_of(shard):
            sketch = CountMinSketch(width=32, depth=4)
            for idx, count in shard:
                sketch.add(f"k-{idx}", count)
            return sketch

        sketches = [sketch_of(shard) for shard in shards]
        forward = CountMinSketch.merge_all(sketches)
        backward = CountMinSketch.merge_all(sketches[::-1])
        assert forward.to_bytes() == backward.to_bytes()

    @given(st.lists(streams, min_size=2, max_size=4))
    def test_merged_estimate_covers_combined_stream(self, shards):
        sketches = []
        combined: Counter = Counter()
        for shard in shards:
            sketch = CountMinSketch(width=32, depth=4)
            for idx, count in shard:
                sketch.add(f"k-{idx}", count)
                combined[f"k-{idx}"] += count
            sketches.append(sketch)
        merged = CountMinSketch.merge_all(sketches)
        assert merged.total == sum(s.total for s in sketches)
        for key, true in combined.items():
            assert merged.estimate(key) >= true

    def test_pairwise_merge_leaves_inputs_untouched(self):
        left = CountMinSketch(width=16, depth=3)
        right = CountMinSketch(width=16, depth=3)
        left.add("a", 5)
        right.add("b", 7)
        merged = left.merge(right)
        assert merged.total == 12
        assert left.total == 5 and right.total == 7
        assert merged.estimate("a") >= 5 and merged.estimate("b") >= 7

    def test_incompatible_shapes_refuse_to_merge(self):
        base = CountMinSketch(width=16, depth=3)
        for other in (
            CountMinSketch(width=32, depth=3),
            CountMinSketch(width=16, depth=4),
            CountMinSketch(width=16, depth=3, seed=1),
        ):
            assert not base.compatible(other)
            with pytest.raises(ValueError):
                base.merge(other)
        with pytest.raises(ValueError):
            CountMinSketch.merge_all([])


class TestArrayBackedCounters:
    """``_flat`` (scalar reads and writes) and ``counts`` (vector
    merges, bytes) are one block of memory, whatever built it."""

    @pytest.mark.parametrize(
        "width,depth,typecode",
        [(136, 5, "H"), (8192, 8, "H"), (8193, 8, "I"), (20_000, 5, "I")],
    )
    def test_positions_fit_their_typecode(self, width, depth, typecode):
        sketch = CountMinSketch(width=width, depth=depth)
        for i in range(200):
            held = sketch.positions(key_digest(f"c-{i}"))
            assert held.typecode == typecode
            # One position per row, inside that row: nothing wrapped.
            assert [p // width for p in held] == list(range(depth))
        sketch.add_at(held, 3)
        rows, columns = np.nonzero(sketch.counts)
        assert (rows * width + columns).tolist() == list(held)
        assert sketch.estimate_at(held) == 3 == sketch.estimate("c-199")

    def test_merge_and_reset_keep_both_views_attached(self):
        left = CountMinSketch(width=16, depth=3)
        right = CountMinSketch(width=16, depth=3)
        for i in range(300):
            (left if i % 2 else right).add(f"k-{i % 40}", 1 + i % 5)
        for merged in (
            left.merge(right),
            CountMinSketch.merge_all([left, right]),
        ):
            assert np.shares_memory(merged.counts, merged._flat)
            assert merged._flat.tolist() == (
                (left.counts + right.counts).reshape(-1).tolist()
            )
            assert merged.add("k-1", 4) == merged.estimate("k-1")
            assert merged.counts.reshape(-1).tolist() == merged._flat.tolist()
            merged.reset()
            assert not any(merged._flat) and not merged.counts.any()
            assert merged.add("k-1", 4) == 4
            assert int(merged.counts.sum()) == 4 * merged.depth


class TestStateAndValidation:
    def test_reset_restores_empty_state(self):
        sketch = CountMinSketch(width=16, depth=3)
        empty_bytes = sketch.to_bytes()
        sketch.add("a", 10)
        sketch.reset()
        assert sketch.to_bytes() == empty_bytes
        assert sketch.total == 0

    def test_state_bytes_is_fixed_under_load(self):
        sketch = CountMinSketch(width=136, depth=5)
        before = sketch.state_bytes()
        for i in range(5000):
            sketch.add(f"c-{i}")
        assert sketch.state_bytes() == before

    def test_seed_changes_the_hash_family(self):
        a = CountMinSketch(width=64, depth=4, seed=0)
        b = CountMinSketch(width=64, depth=4, seed=1)
        digest = key_digest("probe")
        assert a.positions(digest) != b.positions(digest)

    def test_add_digest_returns_the_new_estimate(self):
        """Callers use the return value instead of querying again, so
        it must be exactly what ``estimate_at`` would say next —
        through collisions, weighted adds and a merge (which must keep
        the scalar path's view of the counters attached)."""
        rng = random.Random(7)
        sketch = CountMinSketch(width=16, depth=3)
        digests = [key_digest(f"k-{i}") for i in range(60)]
        for step in range(5_000):
            if step == 2_500:
                sketch = sketch.merge(sketch)
            digest = rng.choice(digests)
            count = rng.randrange(0, 9)
            assert sketch.add_digest(digest, count) == (
                sketch.estimate_at(sketch.positions(digest))
            )
        assert np.shares_memory(sketch.counts, sketch._flat)

    @pytest.mark.parametrize("width,depth", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_degenerate_shapes(self, width, depth):
        with pytest.raises(ValueError):
            CountMinSketch(width=width, depth=depth)

    def test_rejects_negative_count(self):
        sketch = CountMinSketch(width=8, depth=2)
        with pytest.raises(ValueError):
            sketch.add("k", -1)
