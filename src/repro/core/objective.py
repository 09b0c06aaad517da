"""The paper's Equation 1 — the objective every planner optimizes.

    max E(S) = Σ_i p_i · x_i = Σ_i x_i · C(N − x_i, M) / C(N, M)
    s.t.      Σ_i x_i = N

The key structural fact (exploited by :mod:`repro.core.dp_fast` and verified
by the property tests) is that Equation 1 is **separable**: each replica's
contribution ``f(x_i) = x_i · C(N − x_i, M) / C(N, M)`` depends only on its
own size and the global ``(N, M)``.
"""

from __future__ import annotations

import math
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
    ``(omega, f(omega))``: the first maximum over ``x ∈ [1, N]`` and its
    value, bit for bit what evaluating ``f`` at every ``x`` would return.
    At ``M = 0`` every client can be saved so ``omega = N``; at ``M = N``
    ``f`` is ``0.0`` everywhere and its first maximum is ``x = 1``.

    Only a window is evaluated.  ``f(x+1)/f(x) = (1 + 1/x) · (1 − M/(N −
    x))`` is a product of two strictly decreasing factors, so ``f`` is
    unimodal on its support ``[1, N − M]`` and exactly ``0.0`` beyond it;
    the ratio is 1 at ``r = (N − M)/(M + 1)``, so the exact-arithmetic
    argmax is ``⌈r⌉`` (at least 1; an integer ``r`` ties with ``r +
    1``).  The window starts at the three points ``⌈r⌉ − 1 .. ⌈r⌉ + 1``
    clipped to the support, and is accepted once each end sits on the
    support's boundary or reads below the window's maximum by the
    relative margin ``μ = 64 · ulp(max(lgamma(N + 1), 1))``; otherwise
    that end moves out by a step that doubles every pass.

    That stop is a proof.  Every kernel value is within a relative ``δ``
    of the exact ``f``: a few ulp of ``lgamma(N + 1)``, the magnitude of
    the log terms that cancel (at most 2.6 ulp on a sample of ``(N, M,
    x)`` up to ``N = 3·10⁶``, against 40-digit arithmetic), plus the
    rounding of ``exp`` and of the product, which the floor at
    ``ulp(1)`` covers; so ``μ > 2δ`` with room to spare.  Say the high
    end reads ``f̂(high) < (1 − μ) · f̂(best)``.  Then exactly ``f(high)
    < f(best)``, so ``high`` lies past the peak (were it at or before
    the peak, unimodality would make it the window's exact maximum),
    and ``f`` does not rise again after it: every ``x > high`` reads
    ``f̂(x) ≤ (1 + δ)/(1 − δ) · f̂(high) < f̂(best)``.  The low end is
    the mirror image.  Past an end on the boundary there are only exact
    zeros, while the window's maximum is positive: the window always
    holds ``⌈r⌉``, where ``f >= f(1) = (N − M)/N``.  So no point outside
    the window reaches the window's maximum, not even as a tie; the
    terms are elementwise (each the bits the array kernel gives it) and
    the window's first maximum is kept, so ``(omega, f(omega))`` are
    the full scan's.  Neighbours of ``ω`` read ``≈ 1 − 1/(2ω²)`` of the
    peak, so one pass settles every ``ω`` below ``(2μ)^(−1/2)`` (~5,800
    at ``N = 150,000``) and a few passes the rest, ``M = 1`` included.
    """
    n_clients, n_bots = index(n_clients), index(n_bots)
    if not 0 <= n_bots <= n_clients:
        raise ValueError(f"n_bots={n_bots} must be within [0, {n_clients}]")
    if n_clients <= 0:
        return 0, 0.0
    if n_bots == 0:
        return n_clients, float(n_clients)
    support = n_clients - n_bots
    if support == 0:
        return 1, 0.0
    ceil_r = -(-support // (n_bots + 1))
    low, high = max(ceil_r - 1, 1), min(ceil_r + 1, support)
    keep = 1.0 - 64.0 * math.ulp(max(math.lgamma(n_clients + 1), 1.0))
    step = 1
    while True:
        values = expected_saved_single_few(
            n_clients, n_bots, range(low, high + 1)
        )
        peak = max(values)
        floor = keep * peak
        widen_low = low > 1 and values[0] >= floor
        widen_high = high < support and values[-1] >= floor
        if not (widen_low or widen_high):
            return low + values.index(peak), peak
        step *= 2
        if widen_low:
            low = max(low - step, 1)
        if widen_high:
            high = min(high + step, support)
