"""Frozen scalar reference implementations of the core kernels.

These are verbatim copies of the *pre-vectorization* bodies of
``repro.core.estimator``, ``repro.core.dp`` and ``repro.core.dp_fast``
(the per-element Python loops the vectorized rewrite replaced), plus the
pre-window bodies of ``objective.single_replica_optimum`` (the scan of
every ``x ∈ [1, N]``) and ``greedy.greedy_sizes`` (the P-step loop), and
the pre-runs planners: the survival kernel that always masked and
clipped, Equation 1 as one kernel element per replica, and
``_greedy_plan`` / ``_even_plan`` built from a P-element size list, and
the attacked-count likelihood as one ``logaddexp`` step per replica.
``tests/core/test_vectorized_equivalence.py`` pins the vectorized
kernels bit-identical (or, for the dp tables and the attacked-count
likelihood computed per run of equal sizes, allclose) against them.

Do not "improve" these: their value is that they never change.  They live
outside ``src/repro`` because no library code may call them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.combinatorics import (
    _lgamma,
    expected_saved_single_many,
    hypergeometric_pmf_vector,
    log1mexp_many,
    logsumexp,
    survival_probabilities,
)
from repro.core.plan import ShufflePlan

__all__ = [
    "scalar_occupancy_pmf",
    "scalar_occupancy_likelihoods",
    "scalar_mle_m_hat",
    "scalar_attacked_count_pmf",
    "scalar_attacked_count_log_pmf",
    "scalar_combine",
    "scalar_optimal_assign",
    "scalar_single_replica_optimum",
    "scalar_greedy_sizes",
    "scalar_survival_log_probabilities",
    "scalar_survival_probabilities",
    "scalar_expected_saved_sizes",
    "scalar_even_sizes",
    "scalar_even_plan",
    "scalar_greedy_plan",
]


def scalar_occupancy_pmf(n_balls: int, n_bins: int) -> np.ndarray:
    """Seed ``occupancy_pmf``: per-ball windowed DP update."""
    row = np.zeros(n_bins + 1, dtype=np.float64)
    row[0] = 1.0
    stay = np.arange(n_bins + 1, dtype=np.float64) / n_bins
    grow = (n_bins - np.arange(n_bins + 1, dtype=np.float64) + 1) / n_bins
    for _ in range(n_balls):
        shifted = np.empty_like(row)
        shifted[0] = 0.0
        shifted[1:] = row[:-1]
        row = row * stay + shifted * grow[: n_bins + 1]
    return row


def scalar_occupancy_likelihoods(
    n_attacked: int, n_bins: int, upper: int
) -> np.ndarray:
    """Seed ``occupancy_likelihoods``: one DP sweep, scalar column reads."""
    row = np.zeros(n_bins + 1, dtype=np.float64)
    row[0] = 1.0
    stay = np.arange(n_bins + 1, dtype=np.float64) / n_bins
    grow = (n_bins - np.arange(n_bins + 1, dtype=np.float64) + 1) / n_bins
    likelihoods = np.zeros(upper + 1, dtype=np.float64)
    likelihoods[0] = row[n_attacked]
    for m in range(1, upper + 1):
        shifted = np.empty_like(row)
        shifted[0] = 0.0
        shifted[1:] = row[:-1]
        row = row * stay + shifted * grow
        likelihoods[m] = row[n_attacked]
    return likelihoods


def scalar_mle_m_hat(
    n_attacked: int, n_replicas: int, upper_bound: int
) -> tuple[int, float]:
    """Seed MLE core: exhaustive sweep argmax over ``m >= n_attacked``.

    Returns ``(m_hat, log_likelihood)`` for the non-degenerate regime
    (``0 < n_attacked < n_replicas``) — the only regime where the seed
    did real work.
    """
    likelihoods = scalar_occupancy_likelihoods(
        n_attacked, n_replicas, upper_bound
    )
    m_hat = n_attacked + int(np.argmax(likelihoods[n_attacked:]))
    peak = float(likelihoods[m_hat])
    return m_hat, (math.log(peak) if peak > 0 else float("-inf"))


def scalar_attacked_count_pmf(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> np.ndarray:
    """Seed ``attacked_count_pmf``: filled-window sequential convolution."""
    xs = np.asarray(sizes, dtype=np.int64)
    q = 1.0 - survival_probabilities(n_clients, n_bots, xs)
    pmf = np.zeros(xs.size + 1, dtype=np.float64)
    pmf[0] = 1.0
    filled = 0
    for qi in q:
        if qi == 0.0:
            continue
        filled += 1
        pmf[1 : filled + 1] = (
            pmf[1 : filled + 1] * (1.0 - qi) + pmf[:filled] * qi
        )
        pmf[0] *= 1.0 - qi
    return pmf


def scalar_attacked_count_log_pmf(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> np.ndarray:
    """``attacked_count_log_pmf`` at 5fba6fa: one bot count, the replicas
    that can never be attacked skipped, one ``logaddexp`` per replica."""
    xs = np.asarray(sizes, dtype=np.int64)
    log_p = scalar_survival_log_probabilities(n_clients, n_bots, xs)
    log_q = log1mexp_many(log_p)
    keep = np.isfinite(log_q)
    log_pmf = np.full(xs.size + 1, -np.inf, dtype=np.float64)
    log_pmf[0] = 0.0
    for log_pi, log_qi in zip(log_p[keep], log_q[keep]):
        shifted = np.concatenate((np.full(1, -np.inf), log_pmf[:-1]))
        log_pmf = np.logaddexp(log_pmf + log_pi, shifted + log_qi)
    return log_pmf - logsumexp(log_pmf)


def scalar_combine(
    uv: np.ndarray, vv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Seed ``dp_fast._combine``: per-``n`` (max,+) convolution loop.

    Returns ``(values, args)`` exactly as the seed's ``_Node`` carried
    them.
    """
    size = uv.size
    vals = np.empty(size, dtype=np.float64)
    arg = np.empty(size, dtype=np.int64)
    for n in range(size):
        candidates = uv[: n + 1] + vv[n::-1]
        a = int(np.argmax(candidates))
        vals[n] = candidates[a]
        arg[n] = a
    return vals, arg


def scalar_leaf_values(n_clients: int, n_bots: int) -> np.ndarray:
    """The dp_fast leaf vector (shared kernel, kept for bench symmetry)."""
    xs = np.arange(0, n_clients + 1, dtype=np.int64)
    return expected_saved_single_many(n_clients, n_bots, xs)


def scalar_optimal_assign(
    n_clients: int, n_bots: int, n_replicas: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seed ``dp.optimal_assign``: the paper-literal four-deep loop nest.

    Returns ``(save_no, assign_no)`` tables with the seed's exact
    accumulation order (``pr @ rest`` per candidate split).
    """
    shape = (n_clients + 1, n_bots + 1, n_replicas)
    save_no = np.zeros(shape, dtype=np.float64)
    assign_no = np.zeros(shape, dtype=np.int64)

    for i in range(n_clients + 1):
        save_no[i, 0, 0] = float(i)

    for k in range(1, n_replicas):
        prev = save_no[:, :, k - 1]
        for i in range(n_clients + 1):
            if i == 0:
                continue
            for j in range(min(i, n_bots) + 1):
                if j == 0:
                    save_no[i, j, k] = float(i)
                    assign_no[i, j, k] = i
                    continue
                best_value = -1.0
                best_a = 0
                for a in range(1, i):
                    pr = hypergeometric_pmf_vector(i, j, a)
                    b_hi = pr.size - 1  # = min(a, j)
                    value = pr[0] * a
                    rest = prev[i - a, j - b_hi : j + 1][::-1]
                    value += float(pr @ rest)
                    if value > best_value:
                        best_value = value
                        best_a = a
                if best_a == 0:
                    save_no[i, j, k] = save_no[i, j, 0]
                else:
                    save_no[i, j, k] = best_value
                    assign_no[i, j, k] = best_a
    return save_no, assign_no


def scalar_single_replica_optimum(
    n_clients: int, n_bots: int
) -> tuple[int, float]:
    """``single_replica_optimum`` at 9e099f0: ``f`` over all of [1, N]."""
    if n_clients <= 0:
        return 0, 0.0
    if n_bots == 0:
        return n_clients, float(n_clients)
    xs = np.arange(1, n_clients + 1, dtype=np.int64)
    values = expected_saved_single_many(n_clients, n_bots, xs)
    best = int(np.argmax(values))
    return int(xs[best]), float(values[best])


def scalar_greedy_sizes(
    n_clients: int, n_bots: int, n_replicas: int
) -> list[int]:
    """``greedy_sizes`` at 9e099f0: one loop step per replica."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas={n_replicas} must be >= 1")
    if not 0 <= n_bots <= n_clients:
        raise ValueError(
            f"n_bots={n_bots} must be within [0, {n_clients}]"
        )

    # Step 1: the single-replica optimum ω on the full problem (N, M).
    omega, _ = scalar_single_replica_optimum(n_clients, n_bots)
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


def scalar_survival_log_probabilities(
    n: int, m: int, xs: np.ndarray
) -> np.ndarray:
    """``survival_log_probabilities`` at af32010: the ``-inf`` mask always."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        return np.zeros(0, dtype=np.float64)
    if xs.min() < 0 or xs.max() > n:
        raise ValueError("group sizes must be within [0, n]")
    if not 0 <= m <= n:
        raise ValueError(f"m={m} must be within [0, {n}]")
    if m == 0:
        return np.zeros(xs.shape, dtype=np.float64)
    rest = n - xs
    out = np.full(xs.shape, -np.inf, dtype=np.float64)
    ok = rest >= m
    restf = rest[ok].astype(np.float64)
    log_num = (
        _lgamma(restf + 1.0)
        - _lgamma(float(m) + 1.0)
        - _lgamma(restf - float(m) + 1.0)
    )
    log_den = (
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    )
    out[ok] = log_num - log_den
    return np.minimum(out, 0.0)


def scalar_survival_probabilities(
    n: int, m: int, xs: np.ndarray
) -> np.ndarray:
    """``survival_probabilities`` at af32010: validated twice, ``np.clip``."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        return np.zeros(0, dtype=np.float64)
    if m == 0:
        if xs.min() < 0 or xs.max() > n:
            raise ValueError("group sizes must be within [0, n]")
        if not 0 <= m <= n:
            raise ValueError(f"m={m} must be within [0, {n}]")
        return np.ones(xs.shape, dtype=np.float64)
    out = scalar_survival_log_probabilities(n, m, xs)
    return np.clip(np.exp(out), 0.0, 1.0)


def scalar_expected_saved_sizes(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> float:
    """``expected_saved_sizes`` at af32010: one kernel term per replica."""
    xs = np.asarray(sizes, dtype=np.int64)
    if xs.size == 0:
        return 0.0
    terms = xs.astype(np.float64) * scalar_survival_probabilities(
        n_clients, n_bots, xs
    )
    return float(terms.sum())


def scalar_even_sizes(n_clients: int, n_replicas: int) -> list[int]:
    """``even_sizes`` at af32010: the list built directly."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas={n_replicas} must be >= 1")
    if n_clients < 0:
        raise ValueError(f"n_clients={n_clients} must be >= 0")
    base, extra = divmod(n_clients, n_replicas)
    return [base + 1] * extra + [base] * (n_replicas - extra)


def scalar_even_plan(
    n_clients: int, n_bots: int, n_replicas: int
) -> ShufflePlan:
    """``_even_plan`` at af32010: size list, Equation 1, ``from_sizes``."""
    sizes = scalar_even_sizes(n_clients, n_replicas)
    value = scalar_expected_saved_sizes(sizes, n_clients, n_bots)
    return ShufflePlan.from_sizes(
        sizes, n_bots, expected_saved=value, algorithm="even"
    )


def scalar_greedy_plan(
    n_clients: int, n_bots: int, n_replicas: int
) -> ShufflePlan:
    """``_greedy_plan`` at af32010: both candidates as P-element lists."""
    sizes = scalar_greedy_sizes(n_clients, n_bots, n_replicas)
    value = scalar_expected_saved_sizes(sizes, n_clients, n_bots)
    even = scalar_even_sizes(n_clients, n_replicas)
    even_value = scalar_expected_saved_sizes(even, n_clients, n_bots)
    if even_value > value:
        sizes, value = even, even_value
    return ShufflePlan.from_sizes(
        sizes, n_bots, expected_saved=value, algorithm="greedy"
    )
