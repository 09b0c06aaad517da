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

Neither step walks its whole range.  ``f(x+1)/f(x) = (1 + 1/x) ·
(1 − M/(N − x))`` strictly decreases, so ``f`` is unimodal with its peak at
``⌈(N − M)/(M + 1)⌉`` and :func:`repro.core.objective.
single_replica_optimum` certifies ``ω`` from the three points around it,
widened only while an end reads within float error of the peak — one
evaluation of three points on every plan of the paper-scale run, instead
of the paper's scan of every ``x`` (its docstring has the stop rule and
the proof that makes the result the full scan's, bit for bit).  The
ω-groups are a prefix whose length has a closed form, and the capped
tail is the even split, so a plan is three runs ``((ω, full), (base +
1, extra), (base, rest))``: Equation 1 is evaluated once per distinct
size, and only the plan's ``group_sizes`` tuple is ``O(P)``; the plan
keeps its runs, so neither its partition check nor :attr:`~repro.core.
plan.ShufflePlan.sizes_array` walks that tuple.  Both evaluations ask
for at most eight terms, so they take the few-point route
(:func:`repro.core.combinatorics.expected_saved_single_few`: Python
floats and one ``np.exp``, the array kernel's bits) — two calls per
plan, pinned as a count in ``tests/sim/test_paper_scale_digest.py``.
Measured over the 323 plans of the seed-1 ``sim_mle_scale`` trajectory
(``N ≤ 150,000``, ``P = 1000``, a shared 2-vCPU Xeon VM), each plan
replayed in one process against the array-kernel route, interleaved:
0.05 ms per plan untraced, a fifth of it finding ``ω``, against 0.08
ms through the array kernel (medians of 15 laps; 0.06–0.08 ms was that
route's figure on a quieter day of the same VM, and 0.15–0.18 ms with
the factor-two window).
"""

from __future__ import annotations

from .even import _even_runs
from .objective import _expected_saved_runs, single_replica_optimum
from .plan import (
    Runs,
    ShufflePlan,
    _check_plan_args,
    _expand_runs,
    _plan_from_runs,
)

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
    checked = _check_plan_args(n_clients, n_bots, n_replicas)
    return list(_expand_runs(_greedy_runs(*checked)))


def _greedy_runs(n_clients: int, n_bots: int, n_replicas: int) -> Runs:
    """:func:`greedy_sizes` as runs: the ω-prefix, then the even tail,
    for checked arguments.

    A run may be empty (``full = 0``, or no ``base + 1`` groups in the
    tail); it is kept here and dropped by the scorer.
    """
    # Step 1: the single-replica optimum ω on the full problem (N, M).
    omega, _ = single_replica_optimum(n_clients, n_bots)
    omega = max(omega, 1)
    # Step 2 with the even-share cap (module docstring): replica j takes
    # ω while ω <= ⌈remaining/left⌉ = ⌈(N − jω)/(P − j)⌉, which rearranges
    # to j < N − (ω − 1)·P — monotone in j, so the ω-groups are a prefix.
    # Steps 3-4: past it every share is the capped one, and taking
    # ⌈remaining/left⌉ replica by replica is the even, larger-first split
    # — the paper's "restate and recurse", optimal in the concave region
    # below ω.  The last replica always takes what is left: the de-facto
    # quarantine bucket whenever bots force small clean groups.
    full = min(max(n_clients - (omega - 1) * n_replicas, 0), n_replicas - 1)
    return ((omega, full),) + _even_runs(
        n_clients - full * omega, n_replicas - full
    )


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
    curves show, at negligible extra cost: both are scored in one
    few-point call over their at most five runs.
    """
    n_clients, n_bots, n_replicas = _check_plan_args(
        n_clients, n_bots, n_replicas
    )
    runs = _greedy_runs(n_clients, n_bots, n_replicas)
    even = _even_runs(n_clients, n_replicas)
    value, even_value = _expected_saved_runs(n_clients, n_bots, runs, even)
    if even_value > value:
        runs, value = even, even_value
    return _plan_from_runs(runs, n_clients, n_bots, value, "greedy")
