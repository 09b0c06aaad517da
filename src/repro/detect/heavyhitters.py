"""Space-saving top-k: who is hammering, in O(k) memory.

Metwally-Agrawal-El Abbadi *space-saving*: keep at most ``capacity``
``(key, count, error)`` entries; a key not being tracked evicts the
current minimum and inherits its count as both floor and error bound.
Guarantees the tests pin:

- **recall** — every key whose true count exceeds ``total/capacity`` is
  in the summary (it cannot have been evicted by a smaller stream);
- **one-sided counts** — ``count >= true``, and ``count - error <=
  true``: the bracket each reported hitter carries;
- **determinism** — evictions break count ties on the key itself, and
  iteration never touches a hash-ordered container, so summaries are
  identical across processes and ``PYTHONHASHSEED`` values;
- **shard merging** — :meth:`merge_all` sums per-key counts and error
  floors across shards and re-trims; summation is commutative, so the
  merged summary is independent of shard order (the property sharded
  coordinators need).

:meth:`add` costs ``O(1)`` on a tracked key and ``O(k)`` on an
eviction — small with the ``k`` of a top-talker table, and the replicas
do not pay it on every request: the sketch window feeds the summary
only with keys the count-min sketch already flags heavy (the classic
sketch + summary two-stage heavy-hitter design).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HeavyHitter", "SpaceSaving"]


@dataclass(frozen=True)
class HeavyHitter:
    """One reported top-talker.

    Attributes:
        key: the client/flow identifier.
        count: estimated occurrence count (``>= true``).
        error: overestimate bound: ``count - error <= true <= count``.
    """

    key: str
    count: int
    error: int

    def to_list(self) -> list[object]:
        """JSON-ready ``[key, count, error]`` row."""
        return [self.key, self.count, self.error]


class SpaceSaving:
    """Bounded top-talker summary over a key stream.

    Args:
        capacity: maximum tracked keys ``k``; any key with true count
            above ``total/k`` is guaranteed present.
    """

    __slots__ = ("capacity", "total", "_counts", "_errors")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.total = 0
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add(self, key: str, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key``."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.total += count
        counts = self._counts
        if key in counts:
            counts[key] += count
            return
        if len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0
            return
        # Evict the minimum; ties break on the key so the summary never
        # depends on dict iteration history or hash seed.
        victim = min(counts, key=lambda k: (counts[k], k))
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[key] = floor + count
        self._errors[key] = floor

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> int:
        """Count upper bound for a tracked key (0 when untracked)."""
        return self._counts.get(key, 0)

    def top(self, n: int | None = None) -> list[HeavyHitter]:
        """The heaviest keys, largest first (count ties on key)."""
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        if n is not None:
            ranked = ranked[:n]
        return [
            HeavyHitter(key=key, count=count, error=self._errors[key])
            for key, count in ranked
        ]

    def guaranteed_threshold(self) -> float:
        """True count above which presence is guaranteed: ``total/k``."""
        return self.total / self.capacity

    # ------------------------------------------------------------------
    # merge / state
    # ------------------------------------------------------------------
    @classmethod
    def merge_all(
        cls,
        summaries: list["SpaceSaving"],
        capacity: int | None = None,
    ) -> "SpaceSaving":
        """Combine shard summaries into one (shard-order independent).

        Per-key counts and error floors are summed across shards — a key
        absent from a shard contributes that shard's worst-case floor of
        0, keeping counts one-sided — then the union is re-trimmed to
        ``capacity`` keeping the largest (count, key) entries.  Sums are
        commutative and the trim is a deterministic sort, so any
        permutation of ``summaries`` produces identical state.
        """
        if not summaries:
            raise ValueError("merge_all needs at least one summary")
        if capacity is None:
            capacity = max(s.capacity for s in summaries)
        merged_counts: dict[str, int] = {}
        merged_errors: dict[str, int] = {}
        for summary in summaries:
            for key, count in summary._counts.items():
                merged_counts[key] = merged_counts.get(key, 0) + count
                merged_errors[key] = (
                    merged_errors.get(key, 0) + summary._errors[key]
                )
        result = cls(capacity)
        result.total = sum(s.total for s in summaries)
        kept = sorted(
            merged_counts.items(), key=lambda item: (-item[1], item[0])
        )[:capacity]
        for key, count in kept:
            result._counts[key] = count
            result._errors[key] = merged_errors[key]
        return result

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Two-shard convenience form of :meth:`merge_all`."""
        return SpaceSaving.merge_all([self, other])

    def reset(self) -> None:
        self.total = 0
        self._counts.clear()
        self._errors.clear()

    def state_bytes(self) -> int:
        """Rough summary footprint: capacity entries of key + 2 ints."""
        key_bytes = sum(len(k) for k in self._counts)
        return key_bytes + 16 * len(self._counts)

    def to_bytes(self) -> bytes:
        """Canonical serialization (sorted rows) for byte-identity
        determinism tests."""
        rows = ";".join(
            f"{key}={count}~{self._errors[key]}"
            for key, count in sorted(self._counts.items())
        )
        return f"ss:{self.capacity}:{self.total}:{rows}".encode("utf-8")
