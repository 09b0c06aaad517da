"""Count-min sketch: the guarantees the detection path stands on."""

from __future__ import annotations

import asyncio
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detect import CountMinSketch, key_digest
from repro.detect import sketch as sketch_module

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

    def test_add_at_returns_the_new_estimate(self):
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
            positions = sketch.positions(rng.choice(digests))
            count = rng.randrange(0, 9)
            assert sketch.add_at(positions, count) == (
                sketch.estimate_at(positions)
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


def _reference_rows(width, depth, seed):
    """The per-sketch derivation the memo replaced, frozen: every
    family's rows must stay these bits."""
    state = np.random.SeedSequence(seed).generate_state(
        2 * depth, dtype=np.uint64
    )
    return tuple(
        (a | 1, b, row * width)
        for row, (a, b) in enumerate(
            zip(state[:depth].tolist(), state[depth:].tolist())
        )
    )


class TestRowHashFamily:
    @given(
        st.integers(1, 1 << 20),
        st.integers(1, 12),
        st.integers(0, (1 << 128) - 1),
    )
    def test_rows_are_the_frozen_derivation(self, width, depth, seed):
        expected = _reference_rows(width, depth, seed)
        assert sketch_module.row_hashes(width, depth, seed) == expected
        assert CountMinSketch(width, depth, seed)._rows == expected
        assert all(
            type(value) is int for row in expected for value in row
        )

    def test_bool_seed_is_its_int(self):
        flagged = CountMinSketch(136, 5, True)
        plain = CountMinSketch(136, 5, 1)
        for sketch in (flagged, plain):
            sketch.add("k-1", 3)
        assert type(flagged.seed) is int
        assert flagged.to_bytes() == plain.to_bytes()
        assert flagged.to_bytes().startswith(b"cms:136:5:1:")

    def test_numpy_ints_become_python_ints(self):
        sketch = CountMinSketch(np.int64(136), np.uint8(5), np.int64(3))
        assert (type(sketch.width), type(sketch.depth), type(sketch.seed)) == (
            int, int, int,
        )
        assert sketch.to_bytes() == CountMinSketch(136, 5, 3).to_bytes()

    @pytest.mark.parametrize("args", [(136, 5, 0.0), (136.0, 5, 0), (136, 5.0, 0)])
    def test_float_arguments_raise(self, args):
        CountMinSketch(136, 5, 0)  # seed 0's rows are memoised first
        with pytest.raises(TypeError):
            CountMinSketch(*args)
        with pytest.raises(TypeError):
            sketch_module.row_hashes(*args)


@pytest.fixture
def derivations(monkeypatch):
    """Count row-hash lookups per ``(width, depth, seed)`` family, made
    through the real memo after emptying it, as on a process's first
    boot; the memo's misses are the derivations."""
    memo = sketch_module._derive_rows
    memo.cache_clear()
    lookups: Counter = Counter()

    def lookup(width, depth, seed):
        lookups[width, depth, seed] += 1
        return memo(width, depth, seed)

    monkeypatch.setattr(sketch_module, "_derive_rows", lookup)
    return lookups, memo


class TestOneDerivationPerFamily:
    def test_sketch_mode_service_start(self, derivations):
        from repro.service import ServiceConfig, ServiceCoordinator

        config = ServiceConfig(
            n_replicas=10, detector="sketch", telemetry_port=None
        )

        async def boot():
            coordinator = ServiceCoordinator(config)
            await coordinator.start()
            try:
                return coordinator.pool.n_active
            finally:
                await coordinator.stop()

        assert asyncio.run(boot()) == 10
        lookups, memo = derivations
        assert sum(lookups.values()) >= 40  # ten windows of four cells
        assert len(lookups) == memo.cache_info().misses == 1

    def test_cloudsim_attack_system(self, derivations):
        from repro.cloudsim import CloudConfig, CloudDefenseSystem

        system = CloudDefenseSystem(CloudConfig(), seed=0)
        system.add_benign_clients(5_000)
        system.add_persistent_bots(200)
        lookups, memo = derivations
        assert sum(lookups.values()) >= 16  # four replicas' windows
        assert len(lookups) == memo.cache_info().misses == 1
