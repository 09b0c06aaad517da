"""The naive even-distribution baseline (paper Figure 4).

The "even" strategy spreads clients as uniformly as possible over the
shuffling replicas, ignoring the bot count entirely.  The paper shows it is
competitive with the greedy planner only while ``M < P``; once bots
outnumber replicas nearly every evenly-sized group contains a bot and almost
no benign clients are saved.
"""

from __future__ import annotations

from .objective import _expected_saved_runs
from .plan import (
    Runs,
    ShufflePlan,
    _check_plan_args,
    _expand_runs,
    _plan_from_runs,
)

__all__ = ["even_sizes"]


def even_sizes(n_clients: int, n_replicas: int) -> list[int]:
    """Split ``n_clients`` into ``n_replicas`` near-equal groups.

    The first ``n_clients mod n_replicas`` groups receive one extra client,
    so sizes differ by at most one.

    Example::

        >>> even_sizes(10, 3)
        [4, 3, 3]
    """
    n_clients, _, n_replicas = _check_plan_args(n_clients, 0, n_replicas)
    return list(_expand_runs(_even_runs(n_clients, n_replicas)))


def _even_runs(n_clients: int, n_replicas: int) -> Runs:
    """:func:`even_sizes` as its two runs: ``base + 1``, then ``base``,
    for checked arguments."""
    base, extra = divmod(n_clients, n_replicas)
    return ((base + 1, extra), (base, n_replicas - extra))


def _even_plan(n_clients: int, n_bots: int, n_replicas: int) -> ShufflePlan:
    """Build the even-split plan and score it with Equation 1.

    Implementation behind ``method="even"`` of :func:`repro.core.api.plan`.
    """
    n_clients, n_bots, n_replicas = _check_plan_args(
        n_clients, n_bots, n_replicas
    )
    runs = _even_runs(n_clients, n_replicas)
    (value,) = _expected_saved_runs(n_clients, n_bots, runs)
    return _plan_from_runs(runs, n_clients, n_bots, value, "even")
