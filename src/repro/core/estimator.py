"""Attack-scale estimation (paper Section V) — vectorized kernels.

The planners need the persistent-bot count ``M``, which is never observable
directly.  Following MOTAG, the paper estimates it by maximum likelihood
from the one signal the coordination server does see after each shuffle:
``X``, the number of shuffling replicas that came under attack.

Under (near-)uniform assignment, bots fall into replicas like balls into
bins, so ``P[X = x | M = m]`` is the classic occupancy distribution, which
we compute exactly with the standard recurrence

    f(m, x) = f(m−1, x) · x/P  +  f(m−1, x−1) · (P − x + 1)/P ,

executed as whole-array steps (no per-element stores — reprolint P14 keeps
this module loop-free at the element level).  One bottom-up pass yields the
likelihood of the observed ``X`` for *every* candidate ``m`` simultaneously,
so the exact estimator costs ``O(upper · P)``.

At paper scale (``upper ≈ 10^6`` clients, ``P ≈ 10^3`` replicas) even that
sweep is ``10^9`` element-ops, so the estimator goes hybrid: the recurrence
covers ``m`` below a stability threshold ``m* ≈ x (ln x + 8)``, and above
it the closed-form inclusion-exclusion occupancy likelihood

    P[X = x | m] = C(P, x) Σ_j (−1)^j C(x, j) ((x − j)/P)^m

is evaluated in log space with a signed ``logsumexp`` — stable exactly
where the recurrence is unaffordable, because the alternating sum's
cancellation ratio ``≈ 1 − x e^{−m/x}`` approaches 1 beyond ``m*``.  A
geometric grid plus bracket refinement then finds the MLE argmax; for all
instances below :data:`_EXACT_SWEEP_LIMIT` the historical full sweep runs
unchanged, bit-identical to the scalar implementation.

Degenerate regime (paper Figure 7, right edge): when **all** replicas are
attacked (``X = P``) the likelihood increases monotonically in ``m`` and
MLE returns its upper bound — a gross overestimate.  Theorem 1 quantifies
when that happens and therefore how many replicas must be provisioned for
the estimate to be informative; see :mod:`repro.analysis.theory`.

A closed-form moment-matching estimator is also provided for the
large-scale multi-round simulations: solving ``E[X] = P (1 − (1 − 1/P)^m)``
for ``m`` gives ``m̂ = ln(1 − X/P) / ln(1 − 1/P)``.

Callers reach the three estimators through
:func:`repro.core.api.estimate`; see ``docs/core-api.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import (
    log_binomial,
    log1mexp_many,
    logsumexp,
    logsumexp_signed,
    survival_log_probabilities,
    survival_probabilities,
)

__all__ = [
    "BotEstimate",
    "occupancy_pmf",
    "occupancy_likelihoods",
    "occupancy_log_likelihoods",
    "attacked_count_pmf",
    "attacked_count_log_pmf",
]

#: Largest ``(upper + 1) · (P + 1)`` for which the exact full-range
#: recurrence sweep runs (bit-identical to the historical scalar path);
#: larger instances switch to the hybrid recurrence-head + closed-form
#: grid search.  25M element-ops keeps every test-scale and service-scale
#: instance on the exact path while bounding the sweep around ~0.2 s.
_EXACT_SWEEP_LIMIT = 25_000_000

#: Bracket width below which the weighted estimator's refinement does the
#: historical exhaustive scan; wider brackets (only reachable at
#: ``N >> 10^5``) are narrowed geometrically first.
_REFINE_SCAN_LIMIT = 4096

#: Candidate-batch size for the closed-form tail grid search.
_GRID_POINTS = 512


@dataclass(frozen=True)
class BotEstimate:
    """Result of an attack-scale estimation.

    Attributes:
        m_hat: estimated persistent-bot count.
        n_attacked: the observation ``X`` the estimate is based on.
        n_replicas: number of shuffling replicas ``P``.
        upper_bound: the largest ``m`` considered (clients on attacked
            replicas).
        degenerate: True when every replica was attacked, i.e. the MLE
            collapsed to ``upper_bound`` and more replicas are needed
            (Theorem 1) before the estimate can be trusted.
        log_likelihood: log-likelihood of the chosen ``m_hat`` (``nan`` for
            the moment estimator and for degenerate estimates).
    """

    m_hat: int
    n_attacked: int
    n_replicas: int
    upper_bound: int
    degenerate: bool = False
    log_likelihood: float = float("nan")


def _occupancy_step(
    row: np.ndarray, stay: np.ndarray, grow: np.ndarray
) -> np.ndarray:
    """One ball of the occupancy recurrence as a whole-array update.

    The slice-store shift is the cheapest whole-array spelling (one
    uninitialized allocation, no concatenate); the arithmetic is the
    seed recurrence verbatim, so outputs stay bit-identical.
    """
    shifted = np.empty_like(row)
    shifted[0] = 0.0
    shifted[1:] = row[:-1]
    return row * stay + shifted * grow


def _occupancy_weights(n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    arange = np.arange(n_bins + 1, dtype=np.float64)
    stay = arange / n_bins
    grow = (n_bins - arange + 1) / n_bins
    return stay, grow


def occupancy_pmf(n_balls: int, n_bins: int) -> np.ndarray:
    """Distribution of the number of occupied bins.

    Returns an array ``pmf`` of length ``n_bins + 1`` with
    ``pmf[x] = P[exactly x bins non-empty]`` after throwing ``n_balls``
    balls uniformly into ``n_bins`` bins.

    Example::

        >>> occupancy_pmf(2, 2)
        array([0. , 0.5, 0.5])
    """
    if n_bins < 1:
        raise ValueError(f"n_bins={n_bins} must be >= 1")
    if n_balls < 0:
        raise ValueError(f"n_balls={n_balls} must be >= 0")
    row = np.zeros(n_bins + 1, dtype=np.float64)
    row[0] = 1.0
    stay, grow = _occupancy_weights(n_bins)
    for _ in range(n_balls):
        row = _occupancy_step(row, stay, grow)
    return row


def occupancy_likelihoods(
    n_attacked: int, n_bins: int, upper: int
) -> np.ndarray:
    """``L[m] = P[X = n_attacked | m bots, n_bins replicas]`` for all ``m``.

    Single recurrence sweep over ``m ∈ [0, upper]``; column ``n_attacked``
    of each intermediate occupancy row is collected.  Linear-space values
    (exact where they do not underflow); the batched log-space form is
    :func:`occupancy_log_likelihoods`.
    """
    if not 0 <= n_attacked <= n_bins:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_bins}]"
        )
    row = np.zeros(n_bins + 1, dtype=np.float64)
    row[0] = 1.0
    stay, grow = _occupancy_weights(n_bins)
    collected = [float(row[n_attacked])]
    for _ in range(upper):
        row = _occupancy_step(row, stay, grow)
        collected.append(float(row[n_attacked]))
    return np.array(collected, dtype=np.float64)


def _closed_form_threshold(n_attacked: int) -> int:
    """Smallest ``m`` where the inclusion-exclusion tail is stable.

    The alternating sum's cancellation ratio is ``≈ 1 − x e^{−m/x}``;
    ``m ≥ x (ln x + 8)`` pins the cancelled mass at ``e^{−8} ≈ 3·10^-4``,
    leaving ~12 significant digits.
    """
    x = max(n_attacked, 1)
    return int(x * (math.log(x) + 8.0)) + 1


def _occupancy_log_closed(
    m_values: np.ndarray, n_attacked: int, n_bins: int
) -> np.ndarray:
    """Closed-form ``log P[X = x | m]`` batched over ``m`` (log space).

    ``P[X = x | m] = C(P, x) Σ_{j<x} (−1)^j C(x, j) ((x − j)/P)^m`` — an
    alternating series reduced with the signed ``logsumexp``.  Only valid
    for ``m >= _closed_form_threshold(x)`` (callers enforce this); the
    ``j = x`` term is ``0^m = 0`` for ``m >= 1`` and is simply omitted.
    """
    x = n_attacked
    ms = np.asarray(m_values, dtype=np.float64)
    j = np.arange(x, dtype=np.float64)
    log_choose = np.array(
        [log_binomial(x, int(jj)) for jj in range(x)], dtype=np.float64
    )
    # domain: log — ((x - j)/P)^m as m * log((x - j)/P).
    log_ratio = np.log((x - j) / n_bins)
    terms = log_choose[None, :] + ms[:, None] * log_ratio[None, :]
    signs = np.where(j.astype(np.int64) % 2 == 0, 1.0, -1.0)
    log_abs, sign = logsumexp_signed(terms, signs, axis=1)
    # The series sums to a probability; in the stable region the sign is
    # strictly positive.  A non-positive sum can only arise from float
    # cancellation below the threshold — treat it as log 0.
    front = log_binomial(n_bins, x)
    return np.where(sign > 0, front + log_abs, -np.inf)


def occupancy_log_likelihoods(
    n_attacked: int, n_bins: int, m_values: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Batched ``log P[X = n_attacked | m]`` over arbitrary ``m`` values.

    The hybrid log-space kernel behind the scalable MLE: candidates below
    the stability threshold ``m*`` come from the exact recurrence sweep
    (logged), candidates above it from the closed-form inclusion-exclusion
    series — each evaluated where it is both fast and stable.
    """
    if not 0 <= n_attacked <= n_bins:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_bins}]"
        )
    ms = np.asarray(m_values, dtype=np.int64)
    if ms.size == 0:
        return np.zeros(0, dtype=np.float64)
    if int(ms.min()) < 0:
        raise ValueError("m values must be >= 0")
    out = np.full(ms.shape, -np.inf, dtype=np.float64)
    threshold = _closed_form_threshold(n_attacked)
    head = ms < threshold
    if bool(head.any()):
        table = occupancy_likelihoods(
            n_attacked, n_bins, int(ms[head].max())
        )
        # domain: log — exact linear-space likelihoods entering log space;
        # underflowed entries become exactly -inf.
        with np.errstate(divide="ignore"):
            out[head] = np.log(table[ms[head]])
    tail = ~head
    if bool(tail.any()):
        out[tail] = _occupancy_log_closed(ms[tail], n_attacked, n_bins)
    return out


def _mle_grid_search(
    n_attacked: int, n_replicas: int, upper_bound: int
) -> tuple[int, float]:
    """Argmax of the occupancy log-likelihood for huge ``upper_bound``.

    Exact recurrence over ``[x, m*]``, then a geometric grid with
    iterated bracket refinement over the closed-form tail ``[m*, upper]``
    (the likelihood is unimodal in ``m`` for ``x < P``).  Returns
    ``(m_hat, log_likelihood)``.
    """
    x = n_attacked
    threshold = min(_closed_form_threshold(x), upper_bound)
    head = occupancy_likelihoods(x, n_replicas, threshold)
    head_m = x + int(np.argmax(head[x:]))
    head_peak = float(head[head_m])
    head_log = math.log(head_peak) if head_peak > 0 else float("-inf")
    if threshold >= upper_bound:
        return head_m, head_log
    lo, hi = threshold, upper_bound
    while hi - lo + 1 > _REFINE_SCAN_LIMIT:
        grid = np.unique(
            np.geomspace(max(lo, 1), hi, num=_GRID_POINTS)
            .round()
            .astype(np.int64)
        )
        grid = grid[(grid >= lo) & (grid <= hi)]
        logs = _occupancy_log_closed(grid, x, n_replicas)
        best = int(np.argmax(logs))
        new_lo = int(grid[best - 1]) if best > 0 else lo
        new_hi = int(grid[best + 1]) if best + 1 < grid.size else hi
        if (new_lo, new_hi) == (lo, hi):
            break
        lo, hi = new_lo, new_hi
    window = np.arange(lo, hi + 1, dtype=np.int64)
    logs = _occupancy_log_closed(window, x, n_replicas)
    tail_idx = int(np.argmax(logs))
    tail_m = int(window[tail_idx])
    tail_log = float(logs[tail_idx])
    if tail_log > head_log:
        return tail_m, tail_log
    return head_m, head_log


def _estimate_mle(
    n_attacked: int,
    n_replicas: int,
    upper_bound: int,
    log_prior: np.ndarray | None = None,
) -> BotEstimate:
    """Exact occupancy MLE of the persistent-bot count (Section V).

    Implementation behind ``method="mle"`` of :func:`repro.core.api.
    estimate`.

    Args:
        n_attacked: observed attacked-replica count ``X``.
        n_replicas: shuffling replica count ``P``.
        upper_bound: the largest admissible ``m`` — the paper uses the total
            number of clients assigned to attacked replicas.
        log_prior: optional log-space prior over ``m`` (length at least
            ``upper_bound + 1``, e.g. from :func:`repro.trust.prior.
            bot_count_log_prior`); when given, the argmax runs over
            ``log L(m) + log_prior[m]`` (a MAP estimate).  ``None``
            leaves the pure-MLE path untouched.  The degenerate
            all-attacked regime ignores the prior — the likelihood
            carries no information there, and inventing an estimate from
            the prior alone would hide the Theorem 1 fallback the callers
            rely on.
    """
    if not 0 <= n_attacked <= n_replicas:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_replicas}]"
        )
    if upper_bound < n_attacked:
        raise ValueError(
            "upper_bound must be at least the attacked replica count "
            f"(got {upper_bound} < {n_attacked})"
        )
    if n_attacked == 0:
        return BotEstimate(
            m_hat=0,
            n_attacked=0,
            n_replicas=n_replicas,
            upper_bound=upper_bound,
            log_likelihood=0.0,
        )
    if n_attacked == n_replicas:
        # Likelihood is monotone increasing in m: MLE degenerates to the
        # upper bound (paper Figure 7's right edge / Theorem 1 regime).
        return BotEstimate(
            m_hat=upper_bound,
            n_attacked=n_attacked,
            n_replicas=n_replicas,
            upper_bound=upper_bound,
            degenerate=True,
        )
    sweep_cost = (upper_bound + 1) * (n_replicas + 1)
    if log_prior is None and sweep_cost > _EXACT_SWEEP_LIMIT:
        # Huge instance, pure MLE: hybrid grid search (the MAP path stays
        # on the exact sweep — an arbitrary prior need not be unimodal).
        m_hat, log_like = _mle_grid_search(
            n_attacked, n_replicas, upper_bound
        )
        return BotEstimate(
            m_hat=m_hat,
            n_attacked=n_attacked,
            n_replicas=n_replicas,
            upper_bound=upper_bound,
            log_likelihood=log_like,
        )
    likelihoods = occupancy_likelihoods(n_attacked, n_replicas, upper_bound)
    # Only m >= X can produce X attacked replicas.
    if log_prior is None:
        m_hat = n_attacked + int(np.argmax(likelihoods[n_attacked:]))
    else:
        if log_prior.shape[0] < upper_bound + 1:
            raise ValueError(
                f"log_prior covers {log_prior.shape[0]} counts, "
                f"need upper_bound + 1 = {upper_bound + 1}"
            )
        # log L + log prior; a zero likelihood becomes exactly -inf
        # (never the argmax unless everything is impossible).
        with np.errstate(divide="ignore"):
            log_posterior = (
                np.log(likelihoods) + log_prior[: upper_bound + 1]
            )
        m_hat = n_attacked + int(np.argmax(log_posterior[n_attacked:]))
    peak = float(likelihoods[m_hat])
    return BotEstimate(
        m_hat=m_hat,
        n_attacked=n_attacked,
        n_replicas=n_replicas,
        upper_bound=upper_bound,
        log_likelihood=math.log(peak) if peak > 0 else float("-inf"),
    )


def _estimate_moment(
    n_attacked: int, n_replicas: int, upper_bound: int
) -> BotEstimate:
    """Closed-form moment-matching estimator (``method="moment"``)."""
    if not 0 <= n_attacked <= n_replicas:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_replicas}]"
        )
    if n_attacked == 0:
        return BotEstimate(
            m_hat=0,
            n_attacked=0,
            n_replicas=n_replicas,
            upper_bound=upper_bound,
        )
    if n_attacked == n_replicas:
        return BotEstimate(
            m_hat=upper_bound,
            n_attacked=n_attacked,
            n_replicas=n_replicas,
            upper_bound=upper_bound,
            degenerate=True,
        )
    raw = math.log1p(-(n_attacked / n_replicas)) / math.log1p(
        -1.0 / n_replicas
    )
    m_hat = max(n_attacked, min(upper_bound, round(raw)))
    return BotEstimate(
        m_hat=int(m_hat),
        n_attacked=n_attacked,
        n_replicas=n_replicas,
        upper_bound=upper_bound,
    )


def attacked_count_pmf(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> np.ndarray:
    """Approximate pmf of the attacked-replica count for arbitrary sizes.

    The occupancy model behind the uniform MLE assumes (near-)uniform
    group sizes.  Real greedy plans are far from uniform (many
    ``omega``-sized clean groups plus one quarantine bucket), so this
    helper generalizes: each replica's *marginal* attack probability is
    exact, ``q_i = 1 - C(N - x_i, M) / C(N, M)``, and the attacked count
    is approximated as Poisson-binomial over those marginals (ignoring the
    weak negative correlation the fixed bot total induces).  Empty
    replicas can never be attacked.

    The convolution advances one replica per step as a whole-array
    multiply-add over the filled window (identical arithmetic to the
    historical windowed form — after ``k`` replicas at most ``k + 1``
    counts have mass, so the window grows by one per step instead of
    touching the full length-``P + 1`` array each time).  Returns an
    array ``pmf`` of length ``len(sizes) + 1``; the log-space variant
    for paper-scale instances is :func:`attacked_count_log_pmf`.
    """
    xs = np.asarray(sizes, dtype=np.int64)
    q = 1.0 - survival_probabilities(n_clients, n_bots, xs)
    # ``q`` comes from exp(log-space): impossible configurations
    # (x_i = 0, or m = 0) produce exp(-inf), which is *exactly* 0.0,
    # so exact equality is the correct test for "replica can never
    # be attacked" — an epsilon would wrongly drop tiny-but-real
    # attack probabilities from the convolution.
    # exact-sentinel: exp(-inf) underflows to exact 0.0
    active = q[q != 0.0]
    window = np.ones(1, dtype=np.float64)
    for qi in active:
        window = _poisson_binomial_step(window, float(qi))
    pmf = np.zeros(xs.size + 1, dtype=np.float64)
    pmf[: window.size] = window
    return pmf


def _poisson_binomial_step(window: np.ndarray, qi: float) -> np.ndarray:
    """One replica of the Poisson-binomial convolution (whole-array).

    Grows the filled window by one count: ``out[k] = window[k] · (1 − q)
    + window[k − 1] · q``.  The multiply-then-accumulate spells the seed
    expression ``pmf · (1 − q) + shifted · q`` with the same rounding
    steps, so outputs stay bit-identical.
    """
    out = np.empty(window.size + 1, dtype=np.float64)
    np.multiply(window, 1.0 - qi, out=out[:-1])
    out[-1] = 0.0
    out[1:] += window * qi
    return out


def attacked_count_log_pmf(
    sizes: Sequence[int] | np.ndarray, n_clients: int, n_bots: int
) -> np.ndarray:
    """Log-space Poisson-binomial pmf of the attacked-replica count.

    Same model as :func:`attacked_count_pmf` but the convolution runs
    entirely in log space (``logaddexp`` steps over ``log p_i`` /
    ``log q_i``), so tail probabilities that underflow linear floats at
    paper scale stay resolved.  The result is normalized in log space by
    subtracting the ``logsumexp`` of the convolution — never by
    linear-domain division.
    """
    xs = np.asarray(sizes, dtype=np.int64)
    # domain: log — log p_i exact from the lgamma difference (no exp).
    log_p = survival_log_probabilities(n_clients, n_bots, xs)
    # domain: log — log q_i = log(1 - p_i) via the stable complement.
    log_q = log1mexp_many(log_p)
    # Replicas with log q_i == -inf (p_i == 1 exactly: empty replica or
    # m == 0) can never be attacked and drop out of the convolution,
    # mirroring the linear path's q_i == 0.0 skip; log q is otherwise
    # finite, so isfinite is exactly that test.
    keep = np.isfinite(log_q)
    log_pmf = np.full(xs.size + 1, -np.inf, dtype=np.float64)
    log_pmf[0] = 0.0
    for log_pi, log_qi in zip(log_p[keep], log_q[keep]):
        shifted = np.concatenate(
            (np.full(1, -np.inf), log_pmf[:-1])
        )
        log_pmf = np.logaddexp(log_pmf + log_pi, shifted + log_qi)
    # domain: log — normalize with logsumexp, not linear division: the
    # logaddexp chain drifts a few ulp off sum == 1 and the subtraction
    # re-anchors it without leaving log space.
    return log_pmf - logsumexp(log_pmf)


def _estimate_weighted(
    n_attacked: int,
    sizes: Sequence[int] | np.ndarray,
    n_clients: int,
    candidates: int = 64,
    log_prior: np.ndarray | None = None,
) -> BotEstimate:
    """MLE of the bot count for *non-uniform* group sizes.

    Implementation behind ``method="weighted"`` of :func:`repro.core.api.
    estimate`: maximizes the Poisson-binomial likelihood of
    :func:`attacked_count_pmf` over ``m`` via a geometric candidate grid
    with local refinement.

    Args:
        n_attacked: observed attacked-replica count ``X``.
        sizes: planned group sizes ``x_1..x_P`` of the observed shuffle.
        n_clients: total clients ``N`` in the shuffle.
        candidates: grid density for the coarse search.
        log_prior: optional log-space prior over ``m`` (length at least
            ``n_clients + 1``); when given the grid search maximizes
            ``log L(m) + log_prior[m]`` (MAP).  ``None`` keeps the
            pure-MLE path bit-identical; the degenerate
            all-nonempty-attacked regime ignores the prior.
    """
    xs = np.asarray(sizes, dtype=np.int64)
    n_replicas = int(xs.size)
    nonempty = int((xs > 0).sum())
    if not 0 <= n_attacked <= n_replicas:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_replicas}]"
        )
    if int(xs.sum()) != n_clients:
        raise ValueError("sizes must sum to n_clients")
    if n_attacked > nonempty:
        raise ValueError(
            f"n_attacked={n_attacked} exceeds non-empty replicas "
            f"({nonempty})"
        )
    if n_attacked == 0:
        return BotEstimate(
            m_hat=0, n_attacked=0, n_replicas=n_replicas,
            upper_bound=n_clients, log_likelihood=0.0,
        )
    if n_attacked == nonempty:
        # Saturated: likelihood is monotone in m, degenerate estimate.
        return BotEstimate(
            m_hat=n_clients, n_attacked=n_attacked, n_replicas=n_replicas,
            upper_bound=n_clients, degenerate=True,
        )

    if log_prior is not None and log_prior.shape[0] < n_clients + 1:
        raise ValueError(
            f"log_prior covers {log_prior.shape[0]} counts, "
            f"need n_clients + 1 = {n_clients + 1}"
        )

    def log_likelihood(m: int) -> float:
        pmf = attacked_count_pmf(xs, n_clients, m)
        value = float(pmf[n_attacked])
        if value > 0.0:
            return math.log(value)
        # Linear underflow: re-resolve the tail in log space.
        return float(attacked_count_log_pmf(xs, n_clients, m)[n_attacked])

    def objective(m: int) -> float:
        # MAP objective: log-likelihood plus the (log-space) prior.
        value = log_likelihood(m)
        if log_prior is not None:
            value += float(log_prior[m])
        return value

    lo, hi = n_attacked, n_clients
    grid = np.unique(
        np.geomspace(max(lo, 1), hi, num=min(candidates, hi - lo + 1))
        .round()
        .astype(np.int64)
    )
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size == 0:
        grid = np.array([lo], dtype=np.int64)
    coarse_best = max(grid, key=objective)
    # Local refinement between the neighbouring grid points.
    position = int(np.searchsorted(grid, coarse_best))
    left = int(grid[position - 1]) if position > 0 else lo
    right = int(grid[position + 1]) if position + 1 < grid.size else hi
    while right - left + 1 > _REFINE_SCAN_LIMIT:
        # Bracket too wide to scan (only reachable at N >> 10^5): narrow
        # it with another geometric grid before the exhaustive pass.
        inner = np.unique(
            np.geomspace(max(left, 1), right, num=candidates)
            .round()
            .astype(np.int64)
        )
        inner = inner[(inner >= left) & (inner <= right)]
        inner_best = max(inner, key=objective)
        inner_pos = int(np.searchsorted(inner, inner_best))
        new_left = int(inner[inner_pos - 1]) if inner_pos > 0 else left
        new_right = (
            int(inner[inner_pos + 1])
            if inner_pos + 1 < inner.size
            else right
        )
        if (new_left, new_right) == (left, right):
            break
        left, right = new_left, new_right
    window = range(max(lo, left), min(hi, right) + 1)
    m_hat = max(window, key=objective)
    return BotEstimate(
        m_hat=int(m_hat),
        n_attacked=n_attacked,
        n_replicas=n_replicas,
        upper_bound=n_clients,
        log_likelihood=log_likelihood(int(m_hat)),
    )
