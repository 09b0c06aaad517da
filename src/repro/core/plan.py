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
from typing import Iterable, Sequence

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

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            raise PlanError(f"n_clients={self.n_clients} must be >= 0")
        if not 0 <= self.n_bots <= self.n_clients:
            raise PlanError(
                f"n_bots={self.n_bots} must be within [0, {self.n_clients}]"
            )
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
        return np.asarray(self.group_sizes, dtype=np.int64)

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
    coerced again; ``__post_init__`` still checks the partition.
    """
    return ShufflePlan(
        group_sizes=_expand_runs(runs),
        n_clients=n_clients,
        n_bots=int(n_bots),
        expected_saved=value,
        algorithm=algorithm,
    )


def validate_partition(sizes: Sequence[int], n_clients: int) -> None:
    """Raise :class:`PlanError` unless ``sizes`` is a partition of clients."""
    if min(sizes, default=0) < 0:
        raise PlanError(f"negative group size in {tuple(sizes)!r}")
    total = sum(sizes)
    if total != n_clients:
        raise PlanError(f"group sizes sum to {total}, expected {n_clients}")
