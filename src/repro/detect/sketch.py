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
  and ``PYTHONHASHSEED`` values.  The coefficients are a pure function
  of ``(width, depth, seed)``, derived once per family per process
  (:func:`row_hashes`) and shared by every sketch of that family.

Ingestion is request-at-a-time (:meth:`~CountMinSketch.add`, the shape
the live service and the DES produce) and splits in two: hashing a key
to its counter :meth:`~CountMinSketch.positions` — python-int
arithmetic, a pure function of ``(digest, width, depth, seed)`` that
the replicas run once per client, at admission — and the conservative
update at those positions (:meth:`~CountMinSketch.add_at`), element
reads and writes on one ``array('Q')``.  ``counts`` is a numpy view of
the same memory, because merging is vector work and fixed
:meth:`~CountMinSketch.state_bytes` is the detector's claim.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from functools import lru_cache
from operator import index

import numpy as np

__all__ = ["CountMinSketch", "key_digest", "row_hashes"]

#: wrap-around mask: all hashing is arithmetic mod 2**64.
_MASK64 = 0xFFFFFFFFFFFFFFFF


def key_digest(key: str | bytes) -> int:
    """Stable 64-bit digest of a key (``PYTHONHASHSEED``-independent).

    The input of :meth:`CountMinSketch.positions`, which the replicas
    run once per client, at admission time.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "little"
    )


def row_hashes(
    width: int, depth: int, seed: int
) -> tuple[tuple[int, int, int], ...]:
    """Per-row ``(a, b, offset)`` of the ``(width, depth, seed)`` hash
    family, as python ints (``a`` odd, ``offset = row * width``).

    The arguments are coerced with :func:`operator.index` before the
    memo sees them: ``True`` is seed ``1`` and a numpy int its python
    value, while a float raises ``TypeError`` — left to the memo,
    ``0.0 == 0`` would hand seed ``0.0`` the rows of seed ``0``.
    """
    return _derive_rows(index(width), index(depth), index(seed))


# A family is one deployment's sketch configuration, and a process
# holds a handful, so the memo is unbounded.
@lru_cache(maxsize=None)
def _derive_rows(
    width: int, depth: int, seed: int
) -> tuple[tuple[int, int, int], ...]:
    # SeedSequence spreads the seed into well-mixed 64-bit words
    # regardless of its entropy, so seed=0 and seed=1 give unrelated
    # hash families; every window cell, replica, substitute and merge
    # of a family shares this one derivation.
    state = np.random.SeedSequence(seed).generate_state(
        2 * depth, dtype=np.uint64
    )
    return tuple(
        (a | 1, b, row * width)
        for row, (a, b) in enumerate(
            zip(state[:depth].tolist(), state[depth:].tolist())
        )
    )


class CountMinSketch:
    """Fixed-memory frequency sketch over a key stream.

    Args:
        width: counters per row (``ceil(e/ε)`` for error budget ε).
        depth: hash rows (``ceil(ln 1/δ)`` for failure probability δ).
        seed: row-hash seed; two sketches merge only when their
            ``(width, depth, seed)`` match.

    All three are coerced with :func:`operator.index` (``True`` is seed
    ``1``, numpy ints become python ints, a float raises ``TypeError``),
    so equal families compare and serialise alike.

    Updates are conservative (Estan-Varghese): a key's row counters
    rise only as far as its new estimate requires — never more
    overestimate than plain sums, often much less.
    """

    __slots__ = ("width", "depth", "seed", "counts", "total", "_rows",
                 "_flat")

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        width, depth, seed = index(width), index(depth), index(seed)
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        # One block of counters, two views sharing its memory: the
        # array for scalar reads and writes (plain ints, no numpy
        # scalars), ``counts`` for merges, resets and serialization.
        self._flat = array("Q", bytes(8 * depth * width))
        self.counts = np.frombuffer(self._flat, dtype=np.uint64).reshape(
            depth, width
        )
        self.total = 0
        self._rows = row_hashes(width, depth, seed)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def positions(self, digest: int) -> array:
        """Counter positions of one key digest in the flat counter
        array (``row * width + column``, one per row), packed in the
        narrowest unsigned typecode that holds ``width * depth``.

        Valid for any sketch with this one's ``(width, depth, seed)``
        and for no other: hold them per sketch family, never across.

        Multiply-shift: the *high* 32 bits of ``a*x + b`` feed the
        modulo.  Reducing the product directly would keep only its low
        bits, and odd multipliers preserve low-bit congruences — two
        digests equal mod ``width`` would then collide in every row at
        once, destroying the rows' independence.
        """
        width = self.width
        last = width * self.depth - 1
        return array(
            "H" if last < 1 << 16 else "I" if last < 1 << 32 else "Q",
            [
                offset + (((a * digest + b) & _MASK64) >> 32) % width
                for a, b, offset in self._rows
            ],
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, key: str | bytes, count: int = 1) -> int:
        """Fold ``count`` occurrences of ``key`` in; returns the new
        estimate for ``key``."""
        return self.add_at(self.positions(key_digest(key)), count)

    def add_at(self, positions: array, count: int = 1) -> int:
        """The update itself, at pre-computed :meth:`positions` (the
        hot-path form); returns the new estimate, as
        :meth:`estimate_at` would."""
        if count < 0:
            raise ValueError("count must be >= 0")
        flat = self._flat
        self.total += count
        target = min(map(flat.__getitem__, positions)) + count
        for i in positions:
            if flat[i] < target:
                flat[i] = target
        return target

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, key: str | bytes) -> int:
        """Frequency upper bound for ``key`` (``>=`` its true count)."""
        return self.estimate_at(self.positions(key_digest(key)))

    def estimate_at(self, positions: array) -> int:
        return min(map(self._flat.__getitem__, positions))

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
