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

Ingestion is request-at-a-time (:meth:`~CountMinSketch.add`, the shape
the live service and the DES produce): plain integer arithmetic on
python-int hash coefficients and a flat view of the counters, no
per-call numpy scalars.  The counters stay one numpy matrix because
fixed :meth:`~CountMinSketch.state_bytes` is the detector's claim.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["CountMinSketch", "key_digest"]

#: wrap-around mask: all hashing is arithmetic mod 2**64.
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


class CountMinSketch:
    """Fixed-memory frequency sketch over a key stream.

    Args:
        width: counters per row (``ceil(e/ε)`` for error budget ε).
        depth: hash rows (``ceil(ln 1/δ)`` for failure probability δ).
        seed: row-hash seed; two sketches merge only when their
            ``(width, depth, seed)`` match.

    Updates are conservative (Estan-Varghese): a key's row counters
    rise only as far as its new estimate requires — never more
    overestimate than plain sums, often much less.
    """

    __slots__ = ("width", "depth", "seed", "counts", "total", "_rows",
                 "_flat")

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.counts = np.zeros((depth, width), dtype=np.uint64)
        self.total = 0
        # Deterministic row-hash coefficients: SeedSequence spreads the
        # user seed into well-mixed 64-bit words regardless of its
        # entropy, so seed=0 and seed=1 give unrelated hash families.
        state = np.random.SeedSequence(seed).generate_state(
            2 * depth, dtype=np.uint64
        )
        # Per-row ``(a, b, offset)`` as python ints (odd multipliers),
        # and a flat view sharing ``counts``' memory (``counts`` is only
        # ever updated in place), so one request costs integer
        # arithmetic plus 1-D element reads and writes.
        self._rows = tuple(
            (a | 1, b, row * width)
            for row, (a, b) in enumerate(
                zip(state[:depth].tolist(), state[depth:].tolist())
            )
        )
        self._flat = self.counts.reshape(-1)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def _indices(self, digest: int) -> list[int]:
        """Row-wise counter index of one key digest, as positions in
        the flat view.

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

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, key: str | bytes, count: int = 1) -> int:
        """Fold ``count`` occurrences of ``key`` in; returns the new
        estimate for ``key``."""
        return self.add_digest(key_digest(key), count)

    def add_digest(self, digest: int, count: int = 1) -> int:
        """Update by pre-computed digest (hot-path form); returns the
        new estimate, as :meth:`estimate_digest` would."""
        if count < 0:
            raise ValueError("count must be >= 0")
        flat = self._flat
        idx = self._indices(digest)
        values = [flat.item(i) for i in idx]
        self.total += count
        target = min(values) + count
        for i, value in zip(idx, values):
            if value < target:
                flat[i] = target
        return target

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, key: str | bytes) -> int:
        """Frequency upper bound for ``key`` (``>=`` its true count)."""
        return self.estimate_digest(key_digest(key))

    def estimate_digest(self, digest: int) -> int:
        flat = self._flat
        return min(flat.item(i) for i in self._indices(digest))

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
        merged = CountMinSketch(self.width, self.depth, self.seed)
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
        merged = cls(first.width, first.depth, first.seed)
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
        """Bytes of counter state plus the two 64-bit hash coefficients
        per row (fixed for the sketch's lifetime)."""
        return self.counts.nbytes + 16 * self.depth

    def to_bytes(self) -> bytes:
        """Canonical serialization of the counter state (for the
        byte-identity determinism tests and cross-process diffing).
        The ``1`` header field marks the conservative update rule."""
        header = (
            f"cms:{self.width}:{self.depth}:{self.seed}:1:{self.total}:"
        ).encode("ascii")
        return header + np.ascontiguousarray(self.counts).tobytes()
