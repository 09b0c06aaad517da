"""Count-min sketch with conservative update (streaming frequency).

The frequency oracle behind the fixed-memory detection path: a
``depth × width`` matrix of counters where every key is folded into one
counter per row by a pairwise-independent hash, queried as the minimum
over its row counters.  Properties the tests pin:

- **one-sided error** — ``estimate(k) >= true count of k`` always (every
  row counter dominates the key's true count; conservative update
  preserves the invariant);
- **bounded overestimate** — ``estimate(k) - true <= ε·N`` except with
  probability ``δ``, where ``N`` is the stream mass (``total``);
- **mergeability** — element-wise counter sums combine shard sketches,
  and integer addition is commutative, so the merged bytes are
  identical regardless of merge order;
- **determinism** — row hashes are multiply-shift mixes whose
  coefficients come from a :class:`numpy.random.SeedSequence`, and keys
  are digested with ``blake2b``; nothing consults Python's randomized
  ``hash()``, so sketch contents are byte-identical across processes
  and ``PYTHONHASHSEED`` values.

Ingestion has two shapes sharing one counter matrix: the scalar
:meth:`~CountMinSketch.add` for request-at-a-time callers (the live
service, the DES) — plain integer arithmetic on python-int hash
coefficients and a flat view of the counters, no per-call numpy
scalars — and the vectorized :meth:`~CountMinSketch.add_batch` for the
saturating hot path, where a numpy batch of pre-computed key digests
is folded in one ``np.maximum.at`` pass — the difference the detection
benchmark measures.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["CountMinSketch", "key_digest", "key_digests"]

#: wrap-around mask: all hashing is arithmetic mod 2**64 so the scalar
#: (python int) and batch (numpy uint64) paths index identically.
_MASK64 = 0xFFFFFFFFFFFFFFFF


def key_digest(key: str | bytes) -> int:
    """Stable 64-bit digest of a key (``PYTHONHASHSEED``-independent).

    Computed once per client at admission time (the replicas keep it
    beside the whitelist entry): the per-request cost is then pure
    arithmetic on the digest.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "little"
    )


def key_digests(keys: list[str] | tuple[str, ...]) -> np.ndarray:
    """Vectorize :func:`key_digest` over a key list (uint64 array)."""
    return np.array([key_digest(key) for key in keys], dtype=np.uint64)


class CountMinSketch:
    """Fixed-memory frequency sketch over a key stream.

    Args:
        width: counters per row (``ceil(e/ε)`` for error budget ε).
        depth: hash rows (``ceil(ln 1/δ)`` for failure probability δ).
        seed: row-hash seed; two sketches merge only when their
            ``(width, depth, seed)`` match.
        conservative: update only as far as the current estimate
            requires (Estan-Varghese conservative update) — never
            overestimates more than the plain sketch, often much less.
    """

    __slots__ = ("width", "depth", "seed", "conservative", "counts",
                 "total", "_a", "_b", "_rows", "_flat")

    def __init__(
        self,
        width: int,
        depth: int,
        seed: int = 0,
        conservative: bool = True,
    ) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.conservative = conservative
        self.counts = np.zeros((depth, width), dtype=np.uint64)
        self.total = 0
        # Deterministic row-hash coefficients: SeedSequence spreads the
        # user seed into well-mixed 64-bit words regardless of its
        # entropy, so seed=0 and seed=1 give unrelated hash families.
        state = np.random.SeedSequence(seed).generate_state(
            2 * depth, dtype=np.uint64
        )
        self._a = state[:depth] | np.uint64(1)  # odd multipliers
        self._b = state[depth:]
        # Scalar-path forms of the same state: per-row ``(a, b, offset)``
        # as python ints, and a flat view sharing ``counts``' memory
        # (``counts`` is only ever updated in place), so one request
        # costs integer arithmetic plus 1-D element reads and writes.
        self._rows = tuple(
            (a, b, row * width)
            for row, (a, b) in enumerate(
                zip(self._a.tolist(), self._b.tolist())
            )
        )
        self._flat = self.counts.reshape(-1)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def _indices(self, digest: int) -> list[int]:
        """Row-wise counter index of one key digest, as positions in
        the flat view (scalar path).

        Multiply-shift: the *high* 32 bits of ``a*x + b`` feed the
        modulo.  Reducing the product directly would keep only its low
        bits, and odd multipliers preserve low-bit congruences — two
        digests equal mod ``width`` would then collide in every row at
        once, destroying the rows' independence.
        """
        width = self.width
        return [
            offset + (((a * digest + b) & _MASK64) >> 32) % width
            for a, b, offset in self._rows
        ]

    def _index_matrix(self, digests: np.ndarray) -> np.ndarray:
        """``(depth, n)`` counter indices for a digest batch.

        uint64 arithmetic wraps mod 2**64 in numpy, matching the masked
        python-int arithmetic of the scalar path exactly.
        """
        mixed = self._a[:, None] * digests[None, :] + self._b[:, None]
        return (mixed >> np.uint64(32)) % np.uint64(self.width)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, key: str | bytes, count: int = 1) -> int:
        """Fold one occurrence batch of ``key`` in; returns the new
        estimate for ``key``."""
        return self.add_digest(key_digest(key), count)

    def add_digest(self, digest: int, count: int = 1) -> int:
        """Scalar update by pre-computed digest (hot-path form);
        returns the new estimate, as :meth:`estimate_digest` would."""
        if count < 0:
            raise ValueError("count must be >= 0")
        flat = self._flat
        idx = self._indices(digest)
        values = [flat.item(i) for i in idx]
        self.total += count
        if self.conservative:
            target = min(values) + count
            for i, value in zip(idx, values):
                if value < target:
                    flat[i] = target
            return target
        for i, value in zip(idx, values):
            flat[i] = value + count
        return min(values) + count

    def add_batch(
        self, digests: np.ndarray, counts: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized update; returns per-item post-update estimates.

        Args:
            digests: uint64 key digests, one per stream item (duplicates
                fine — they are aggregated before the counter update).
            counts: optional per-item weights (default: 1 each).

        Duplicate digests are combined first (``np.unique``), then every
        unique key receives one simultaneous conservative update:
        each of its row counters is raised to at least
        ``estimate_before + count``.  Colliding keys raise a shared
        counter to the larger of their targets — still an upper bound
        for each, so the one-sided guarantee survives batching, and
        ``np.maximum.at`` makes the result independent of intra-batch
        order.
        """
        digests = np.ascontiguousarray(digests, dtype=np.uint64)
        if digests.size == 0:
            return np.zeros(0, dtype=np.uint64)
        unique, inverse = np.unique(digests, return_inverse=True)
        if counts is None:
            weights = np.bincount(
                inverse, minlength=unique.size
            ).astype(np.uint64)
        else:
            weights = np.bincount(
                inverse, weights=np.asarray(counts, dtype=np.float64),
                minlength=unique.size,
            ).astype(np.uint64)
        idx = self._index_matrix(unique)
        self.total += int(weights.sum())
        if self.conservative:
            gathered = np.take_along_axis(
                self.counts, idx, axis=1
            )  # (depth, n_unique)
            targets = gathered.min(axis=0) + weights
            for i in range(self.depth):
                np.maximum.at(self.counts[i], idx[i], targets)
        else:
            for i in range(self.depth):
                np.add.at(self.counts[i], idx[i], weights)
        gathered = np.take_along_axis(self.counts, idx, axis=1)
        return gathered.min(axis=0)[inverse]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, key: str | bytes) -> int:
        """Frequency upper bound for ``key`` (``>=`` its true count)."""
        return self.estimate_digest(key_digest(key))

    def estimate_digest(self, digest: int) -> int:
        flat = self._flat
        return min(flat.item(i) for i in self._indices(digest))

    def estimate_batch(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized point queries (uint64 estimates)."""
        digests = np.ascontiguousarray(digests, dtype=np.uint64)
        if digests.size == 0:
            return np.zeros(0, dtype=np.uint64)
        idx = self._index_matrix(digests)
        return np.take_along_axis(self.counts, idx, axis=1).min(axis=0)

    def error_bound(self) -> int:
        """Additive error ceiling ``ε·N`` implied by width and mass."""
        return math.ceil(math.e / self.width * self.total)

    # ------------------------------------------------------------------
    # merge / state
    # ------------------------------------------------------------------
    def compatible(self, other: "CountMinSketch") -> bool:
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.seed == other.seed
        )

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """New sketch holding both streams (commutative, associative)."""
        if not self.compatible(other):
            raise ValueError(
                "cannot merge sketches with different (width, depth, "
                "seed)"
            )
        merged = CountMinSketch(
            self.width, self.depth, self.seed,
            conservative=self.conservative,
        )
        np.add(self.counts, other.counts, out=merged.counts)
        merged.total = self.total + other.total
        return merged

    @classmethod
    def merge_all(
        cls, sketches: list["CountMinSketch"]
    ) -> "CountMinSketch":
        """Merge shard sketches; the result is order-independent."""
        if not sketches:
            raise ValueError("merge_all needs at least one sketch")
        first = sketches[0]
        merged = cls(
            first.width, first.depth, first.seed,
            conservative=first.conservative,
        )
        for sketch in sketches:
            if not first.compatible(sketch):
                raise ValueError(
                    "cannot merge sketches with different (width, "
                    "depth, seed)"
                )
            merged.counts += sketch.counts
            merged.total += sketch.total
        return merged

    def reset(self) -> None:
        self.counts.fill(0)
        self.total = 0

    def state_bytes(self) -> int:
        """Bytes of counter state (fixed for the sketch's lifetime)."""
        return int(
            self.counts.nbytes + self._a.nbytes + self._b.nbytes
        )

    def to_bytes(self) -> bytes:
        """Canonical serialization of the counter state (for the
        byte-identity determinism tests and cross-process diffing)."""
        header = (
            f"cms:{self.width}:{self.depth}:{self.seed}:"
            f"{int(self.conservative)}:{self.total}:"
        ).encode("ascii")
        return header + np.ascontiguousarray(self.counts).tobytes()
