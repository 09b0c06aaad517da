"""Shuffle plans: the unit of decision in the paper's defense.

A *shuffle plan* is the coordination server's only lever (Section III-D):
it decides **how many** clients go to each replacement replica, never which
individual clients.  The actual client-to-replica mapping is then a uniform
random matching of clients to the planned slots, which is what makes the
hypergeometric analysis of Section IV-A exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import ClassVar, Iterable, Sequence

import numpy as np

__all__ = ["ShufflePlan", "PlanError"]

#: A plan as runs of equal group sizes, ``((size, count), …)`` in replica
#: order: how the greedy and even planners build and score their plans.
Runs = tuple[tuple[int, int], ...]


class PlanError(ValueError):
    """Raised when a shuffle plan violates the model's feasibility rules."""


@dataclass(frozen=True)
class ShufflePlan:
    """An assignment of ``n_clients`` clients across shuffling replicas.

    Attributes:
        group_sizes: ``x_1 .. x_P`` — clients per shuffling replica. Must be
            non-negative and sum to ``n_clients``.
        n_clients: total clients being shuffled (``N`` in the paper,
            benign clients plus persistent bots).
        n_bots: the bot count ``M`` the plan was optimized against. This is
            the *planner's belief* (often an MLE estimate), not ground truth.
        expected_saved: the planner's predicted ``E(S)`` for this plan under
            its belief ``n_bots``; ``nan`` when the planner does not compute
            it.
        algorithm: short name of the producing algorithm (``"greedy"``,
            ``"dp"``, ``"dp_fast"``, ``"even"``), for logs and experiments.
    """

    group_sizes: tuple[int, ...]
    n_clients: int
    n_bots: int
    expected_saved: float = float("nan")
    algorithm: str = "unspecified"
    #: the ``(size, count)`` runs of a plan a planner built from runs
    #: (see :func:`_plan_from_runs`), as a ``(k, 2)`` int64 array; the
    #: class default ``None`` marks a plan built from its sizes
    _runs: ClassVar[np.ndarray | None] = None

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise PlanError(f"n_clients={self.n_clients} must be >= 0")
        if not 0 <= self.n_bots <= self.n_clients:
            raise PlanError(
                f"n_bots={self.n_bots} must be within [0, {self.n_clients}]"
            )
        if self._runs is None:  # runs are checked in _plan_from_runs
            validate_partition(self.group_sizes, self.n_clients)

    @classmethod
    def from_sizes(
        cls,
        sizes: Iterable[int],
        n_bots: int,
        *,
        expected_saved: float = float("nan"),
        algorithm: str = "unspecified",
    ) -> "ShufflePlan":
        """Build a plan from group sizes, inferring ``n_clients``.

        Sizes are coerced with :func:`operator.index`: numpy integers
        pass, and a non-integral size raises :class:`TypeError` instead
        of being truncated.
        """
        tup = tuple(map(index, sizes))
        return cls(
            group_sizes=tup,
            n_clients=sum(tup),
            n_bots=int(n_bots),
            expected_saved=expected_saved,
            algorithm=algorithm,
        )

    @property
    def n_replicas(self) -> int:
        """Number of shuffling replicas the plan spreads clients across."""
        return len(self.group_sizes)

    @property
    def sizes_array(self) -> np.ndarray:
        """Group sizes as an ``int64`` numpy array (copy)."""
        runs = self._runs
        if runs is None:
            return np.asarray(self.group_sizes, dtype=np.int64)
        return runs[:, 0].repeat(runs[:, 1])

    def nonempty_sizes(self) -> tuple[int, ...]:
        """Sizes of replicas that actually receive clients."""
        return tuple(size for size in self.group_sizes if size > 0)

    def describe(self) -> str:
        """One-line human-readable summary used by experiment drivers."""
        sizes = self.nonempty_sizes()
        histogram: dict[int, int] = {}
        for size in sizes:
            histogram[size] = histogram.get(size, 0) + 1
        parts = ", ".join(
            f"{count}x{size}" for size, count in sorted(histogram.items())
        )
        return (
            f"ShufflePlan[{self.algorithm}] N={self.n_clients} "
            f"M={self.n_bots} P={self.n_replicas} sizes=({parts}) "
            f"E[S]={self.expected_saved:.2f}"
        )


def _expand_runs(runs: Runs) -> tuple[int, ...]:
    """The group sizes ``x_1 .. x_P`` that ``runs`` stands for."""
    sizes: tuple[int, ...] = ()
    for size, count in runs:
        sizes += (size,) * count
    return sizes


def _plan_from_runs(
    runs: Runs, n_clients: int, n_bots: int, value: float, algorithm: str
) -> ShufflePlan:
    """The :class:`ShufflePlan` of ``runs``, its sizes built by repetition.

    ``n_clients`` and the runs are Python ints already (the planners
    coerce their inputs with :func:`operator.index`), so no size is
    coerced again, and the partition is checked on the runs, in
    ``O(runs)``.  The plan keeps them for :attr:`~ShufflePlan.
    sizes_array`: an instance attribute, not a field (equality, ``repr``
    and exports see only the sizes), and an int64 array, not the tuple
    of tuples — an array is not tracked by the cyclic garbage collector,
    so the plans a run keeps add nothing for it to count.
    """
    if any(size < 0 for size, _ in runs):
        raise PlanError(f"negative group size in {_expand_runs(runs)!r}")
    total = sum(size * count for size, count in runs)
    if total != n_clients:
        raise PlanError(f"group sizes sum to {total}, expected {n_clients}")
    plan = object.__new__(ShufflePlan)
    object.__setattr__(plan, "_runs", np.array(runs, dtype=np.int64))
    ShufflePlan.__init__(
        plan,
        group_sizes=_expand_runs(runs),
        n_clients=n_clients,
        n_bots=int(n_bots),
        expected_saved=value,
        algorithm=algorithm,
    )
    return plan


def _distinct_sizes(plan: ShufflePlan) -> tuple[np.ndarray, np.ndarray]:
    """``plan``'s distinct group sizes, ascending, and the clients each
    holds in all (size × replicas of that size), as int64 arrays.

    The sizes are ``np.unique(plan.sizes_array)``; for a plan built from
    runs they are read off the runs instead, merged by size with the
    empty runs dropped, which is the same pair of arrays without
    expanding the runs to ``P`` sizes and sorting them.
    """
    runs = plan._runs
    if runs is None:
        sizes, counts = np.unique(plan.sizes_array, return_counts=True)
        return sizes, sizes * counts
    merged: dict[int, int] = {}
    for size, count in runs.tolist():
        if count:
            merged[size] = merged.get(size, 0) + count
    ordered = sorted(merged)
    return (
        np.array(ordered, dtype=np.int64),
        np.array([size * merged[size] for size in ordered], dtype=np.int64),
    )


def _check_plan_args(
    n_clients: int, n_bots: int, n_replicas: int
) -> tuple[int, int, int]:
    """The one argument check of every planner: ``P``, then ``N``, then
    ``M``, each coerced with :func:`operator.index` first (numpy
    integers pass as Python ints, a bool as 0 or 1, and a non-integral
    count raises :class:`TypeError`).  Returns ``(N, M, P)`` so
    coerced."""
    n_clients, n_bots, n_replicas = (
        index(n_clients), index(n_bots), index(n_replicas)
    )
    if n_replicas < 1:
        raise ValueError(f"n_replicas={n_replicas} must be >= 1")
    if n_clients < 0:
        raise ValueError(f"n_clients={n_clients} must be >= 0")
    if not 0 <= n_bots <= n_clients:
        raise ValueError(f"n_bots={n_bots} must be within [0, {n_clients}]")
    return n_clients, n_bots, n_replicas


def validate_partition(sizes: Sequence[int], n_clients: int) -> None:
    """Raise :class:`PlanError` unless ``sizes`` is a partition of clients."""
    if min(sizes, default=0) < 0:
        raise PlanError(f"negative group size in {tuple(sizes)!r}")
    total = sum(sizes)
    if total != n_clients:
        raise PlanError(f"group sizes sum to {total}, expected {n_clients}")
