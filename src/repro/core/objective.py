"""The paper's Equation 1 — the objective every planner optimizes.

    max E(S) = Σ_i p_i · x_i = Σ_i x_i · C(N − x_i, M) / C(N, M)
    s.t.      Σ_i x_i = N

The key structural fact (exploited by :mod:`repro.core.dp_fast` and verified
by the property tests) is that Equation 1 is **separable**: each replica's
contribution ``f(x_i) = x_i · C(N − x_i, M) / C(N, M)`` depends only on its
own size and the global ``(N, M)``.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import expected_saved_single_few
from .plan import ShufflePlan

__all__ = [
    "expected_saved",
    "expected_saved_sizes",
    "single_replica_optimum",
]


def expected_saved(plan: ShufflePlan, n_bots: int | None = None) -> float:
    """Evaluate ``E(S)`` (Equation 1) for a plan.

    Args:
        plan: the shuffle plan to score.
        n_bots: ground-truth bot count to score against. Defaults to the
            plan's own belief ``plan.n_bots``, but experiments routinely
            score a plan built from an *estimated* ``M`` against the real
            one.
    """
    m = plan.n_bots if n_bots is None else n_bots
    return expected_saved_sizes(plan.group_sizes, plan.n_clients, m)


def expected_saved_sizes(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> float:
    """``E(S)`` for raw group sizes (no plan object needed)."""
    xs = np.asarray(sizes, dtype=np.int64)
    if xs.size == 0:
        return 0.0
    # Maximal runs of equal consecutive sizes: where each starts, and
    # how long it is.
    starts = np.flatnonzero(np.diff(xs, prepend=xs[0] - 1))
    counts = np.diff(starts, append=xs.size)
    (value,) = _expected_saved_runs(
        n_clients, n_bots, zip(xs[starts].tolist(), counts.tolist())
    )
    return value


def _expected_saved_runs(
    n_clients: int, n_bots: int, *plans: Iterable[tuple[int, int]]
) -> list[float]:
    """``E(S)`` of each plan given as runs ``((size, count), …)``.

    The greedy and even plans have a handful of distinct sizes — at most
    three and two — so Equation 1's terms are evaluated once per run of
    every plan, empty runs dropped, in one call of the few-point route
    :func:`~repro.core.combinatorics.expected_saved_single_few`.  Each
    plan's terms are then repeated back out to its ``P`` replicas before
    the sum: the array summed is the one a size-by-size evaluation
    builds, and so is the sum, bit for bit (``Σ count·term`` would round
    differently).
    """
    sizes: list[int] = []
    counts: list[int] = []
    ends: list[int] = []
    for runs in plans:
        for size, count in runs:
            if count:
                sizes.append(size)
                counts.append(count)
        ends.append(len(sizes))
    terms = np.array(expected_saved_single_few(n_clients, n_bots, sizes))
    values: list[float] = []
    start = 0
    for stop in ends:
        values.append(
            float(terms[start:stop].repeat(counts[start:stop]).sum())
        )
        start = stop
    return values


def single_replica_optimum(n_clients: int, n_bots: int) -> tuple[int, float]:
    """Solve Equation 1 with ``P = 1`` free slot: ``argmax_x f(x)``.

    This is the greedy algorithm's ``ω`` (Section IV-C).  Returns
    ``(omega, f(omega))``, the value the array kernel gives ``omega``.
    ``f(x+1)/f(x) = (1 + 1/x) · (1 − M/(N − x))`` strictly decreases and
    crosses 1 at ``r = (N − M)/(M + 1)``, so the exact argmax is ``⌈r⌉``:
    with ``r, rest = divmod(N − M, M + 1)``, a nonzero ``rest`` gives
    ``ω = r + 1``, the one point evaluated.  An integer ``r`` is an exact
    tie ``f(r) = f(r + 1)``; both are evaluated and the first float
    maximum kept, the pick the pinned ``SIM_ROUNDS`` of the perf
    benchmark were recorded with, so the tie stays a float decision until
    those are re-pinned.  At ``M = 0`` every client can be saved so
    ``omega = N``; at ``M = N`` ``f`` is ``0.0`` everywhere and its first
    maximum is ``x = 1``.
    """
    n_clients, n_bots = index(n_clients), index(n_bots)
    if not 0 <= n_bots <= n_clients:
        raise ValueError(f"n_bots={n_bots} must be within [0, {n_clients}]")
    if n_clients <= 0:
        return 0, 0.0
    if n_bots == 0:
        return n_clients, float(n_clients)
    if n_bots == n_clients:
        return 1, 0.0
    r, rest = divmod(n_clients - n_bots, n_bots + 1)
    points = [r + 1] if rest else [r, r + 1]
    values = expected_saved_single_few(n_clients, n_bots, points)
    peak = max(values)
    return points[values.index(peak)], peak
