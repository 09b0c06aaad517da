"""Closed-form results from the paper (Theorem 1 and related quantities).

Section V models bot placement as throwing ``M`` persistent bots uniformly
into ``P`` shuffling replicas.  Theorem 1: if ``M > log_{1−1/P}(1/P)``,
then with high probability **every** replica is attacked (the expected
number of bot-free replicas, ``E[X_free] = P (1 − 1/P)^M``, drops below 1)
and the MLE of ``M`` degenerates.  The defense must then grow ``P`` until
``M <= log_{1−1/P}(1/P)``.
"""

from __future__ import annotations

import math

__all__ = [
    "expected_unattacked_replicas",
    "max_estimable_bots",
    "all_attacked_with_high_probability",
    "min_replicas_for_bots",
    "expected_saved_fraction_even",
]


def expected_unattacked_replicas(n_replicas: int, n_bots: int) -> float:
    """``E[X_free] = P (1 − 1/P)^M`` under uniform bot placement."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas={n_replicas} must be >= 1")
    if n_bots < 0:
        raise ValueError(f"n_bots={n_bots} must be >= 0")
    if n_replicas == 1:
        return 1.0 if n_bots == 0 else 0.0
    return n_replicas * (1.0 - 1.0 / n_replicas) ** n_bots


def max_estimable_bots(n_replicas: int) -> float:
    """Theorem 1 threshold ``log_{1−1/P}(1/P)``.

    For ``M`` above this value, all replicas are attacked with high
    probability and attack-scale estimation breaks down.
    """
    if n_replicas < 2:
        raise ValueError(
            f"n_replicas={n_replicas} must be >= 2 for the bound to exist"
        )
    return math.log(1.0 / n_replicas) / math.log1p(-1.0 / n_replicas)


def all_attacked_with_high_probability(n_replicas: int, n_bots: int) -> bool:
    """True when Theorem 1 predicts every shuffling replica is attacked."""
    return n_bots > max_estimable_bots(n_replicas)


def min_replicas_for_bots(n_bots: int, ceiling: int = 1 << 30) -> int:
    """Smallest ``P`` satisfying ``M <= log_{1−1/P}(1/P)``.

    This is the replica budget the coordination server must provision so
    that at least one replica stays bot-free in expectation and the MLE
    stays informative.  The threshold grows like ``P ln P``, so the search
    is a simple binary search.

    Example::

        >>> min_replicas_for_bots(100)
        30
    """
    if n_bots < 0:
        raise ValueError(f"n_bots={n_bots} must be >= 0")
    if n_bots <= 1:
        return 2
    lo, hi = 2, 2
    while max_estimable_bots(hi) < n_bots:
        hi *= 2
        if hi > ceiling:
            raise OverflowError(
                f"no replica count below {ceiling} can estimate {n_bots} bots"
            )
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if max_estimable_bots(mid) >= n_bots:
            hi = mid
        else:
            lo = mid + 1
    return hi


def expected_saved_fraction_even(
    n_clients: int, n_bots: int, n_replicas: int
) -> float:
    """Expected benign fraction saved in one even-split shuffle.

    Closed-form companion to Figure 4's naive baseline: with ``x = N/P``
    clients per replica, the expected saved count is
    ``P · x · C(N−x, M)/C(N, M)`` and the benign population is ``N − M``.
    Computed with the same log-space machinery as the planners.
    """
    from ..core.api import plan

    if n_clients <= n_bots:
        return 0.0
    shuffle = plan(n_clients, n_bots, n_replicas, "even")
    return shuffle.expected_saved / (n_clients - n_bots)
