"""The paper's Equation 1 — the objective every planner optimizes.

    max E(S) = Σ_i p_i · x_i = Σ_i x_i · C(N − x_i, M) / C(N, M)
    s.t.      Σ_i x_i = N

The key structural fact (exploited by :mod:`repro.core.dp_fast` and verified
by the property tests) is that Equation 1 is **separable**: each replica's
contribution ``f(x_i) = x_i · C(N − x_i, M) / C(N, M)`` depends only on its
own size and the global ``(N, M)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .combinatorics import (
    expected_saved_single_many,
    survival_probabilities,
)
from .plan import ShufflePlan

__all__ = [
    "expected_saved",
    "expected_saved_sizes",
    "per_replica_terms",
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
    three and two — so the kernel runs once per run of every plan in one
    call, empty runs dropped.  Each plan's terms are then repeated
    back out to its ``P`` replicas before the sum: the array summed is
    the one a size-by-size evaluation builds, and so is the sum, bit for
    bit (``Σ count·term`` would round differently).
    """
    kept = [[(size, count) for size, count in runs if count] for runs in plans]
    sizes = np.array(
        [size for runs in kept for size, _ in runs], dtype=np.int64
    )
    terms = expected_saved_single_many(n_clients, n_bots, sizes)
    values: list[float] = []
    start = 0
    for runs in kept:
        stop = start + len(runs)
        counts = [count for _, count in runs]
        values.append(float(np.repeat(terms[start:stop], counts).sum()))
        start = stop
    return values


def per_replica_terms(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> np.ndarray:
    """Per-replica terms ``x_i · p_i`` of Equation 1, as an array."""
    xs = np.asarray(sizes, dtype=np.int64)
    return xs.astype(np.float64) * survival_probabilities(
        n_clients, n_bots, xs
    )


def single_replica_optimum(n_clients: int, n_bots: int) -> tuple[int, float]:
    """Solve Equation 1 with ``P = 1`` free slot: ``argmax_x f(x)``.

    This is the greedy algorithm's ``ω`` (Section IV-C).  Returns
    ``(omega, f(omega))``: the first maximum over ``x ∈ [1, N]`` and its
    value, bit for bit what evaluating ``f`` at every ``x`` would return.
    At ``M = 0`` every client can be saved so ``omega = N``; at ``M = N``
    ``f`` is ``0.0`` everywhere and its first maximum is ``x = 1``.

    Only a window is evaluated.  ``f(x+1)/f(x) = (1 + 1/x) · (1 − M/(N −
    x))`` is a product of two strictly decreasing factors, so ``f`` is
    unimodal on its support ``[1, N − M]`` and exactly ``0.0`` beyond it;
    the ratio is 1 at ``r = (N − M)/(M + 1)``, so the exact-arithmetic
    argmax is ``max(1, ⌈r⌉)`` (an integer ``r`` ties with ``r + 1``).
    The window starts around ``⌊r⌋`` and is accepted once each end sits
    on the support's boundary or reads below **half** the window's
    maximum; otherwise that end moves out geometrically.

    That stop is a proof.  By unimodality every ``x`` outside the window
    has a true value at most the nearer end's, and the kernel's relative
    float error (a few ulp of ``lgamma(N + 1)``, ~1e-9 at ``N = 150,000``)
    cannot bridge a factor of two; past an end on the boundary there are
    only exact zeros, below the peak's ``f(1) = (N − M)/N`` or more.  The
    kernel is elementwise and ``np.argmax`` keeps the first maximum, so
    ``(omega, f(omega))`` are the full scan's.  ``f(x)/f(ω) ≈ (x/ω) ·
    e^(1 − x/ω)`` halves at ``0.23ω`` and ``2.68ω``: the window is a few
    ``N/M`` wide, growing into the whole support as ``M → 1``.
    """
    if not 0 <= n_bots <= n_clients:
        raise ValueError(f"n_bots={n_bots} must be within [0, {n_clients}]")
    if n_clients <= 0:
        return 0, 0.0
    if n_bots == 0:
        return n_clients, float(n_clients)
    support = n_clients - n_bots
    if support == 0:
        return 1, 0.0
    low = high = max(support // (n_bots + 1), 1)
    widen_low = widen_high = True
    while widen_low or widen_high:
        if widen_low:
            low = max(low // 2, 1)
        if widen_high:
            high = min(2 * high, support)
        xs = np.arange(low, high + 1, dtype=np.int64)
        values = expected_saved_single_many(n_clients, n_bots, xs)
        best = int(np.argmax(values))
        half_peak = 0.5 * values[best]
        widen_low = low > 1 and values[0] >= half_peak
        widen_high = high < support and values[-1] >= half_peak
    return int(xs[best]), float(values[best])
