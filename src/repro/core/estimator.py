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
this module loop-free at the element level).  Column ``x`` of a step reads
columns ``x`` and ``x − 1`` only, so a sweep cut to columns ``0..x``
holds the same bits as a full-width one, and one bottom-up pass yields
the likelihood of ``x`` for every candidate ``m`` it visits.

The MLE does not visit them all, and does not visit any of them twice.
The table ``f(m, k)`` depends on ``P`` alone, so the process keeps one
full-width sweep per replica count (``_occupancy_sweep``, the
``_SWEEP_CACHE_SIZE`` most recently used) and every call at that ``P``
resumes it.  Per column ``k`` the sweep keeps two numbers: the
best ``f(·, k)`` any row so far has held, and the ball count of the first
row that held it — a row replaces them only where it is strictly
``>`` the best, which is ``argmax``'s first-maximum rule, so
``(first[x], peak[x])`` is what ``argmax`` over column ``x`` of the rows
walked would return.  At paper scale (``upper ≈ 10^6`` clients,
``P ≈ 10^3`` replicas) the argmax sits near ``−P ln(1 − x/P)``, a few
thousand balls in, and the sweep advances only until it can prove the
peak of the column asked for is behind it: the first ``m`` where
``f(m, x)`` is below the peak and the mass still at or left of the
observation, ``S_m = Σ_{k ≤ x} f(m, k) = P[X_m ≤ x]``, is below half of
it.  The occupied count never decreases with more balls, so
``f(m′, x) ≤ P[X_m′ ≤ x] ≤ S_m`` for every ``m′ ≥ m`` — no later
candidate reaches the peak.  (In floats a row's mass can drift up by at
most ``1 + 3ε`` per step, under ``1 + 10^-9`` over ``10^6`` steps,
against the factor-two margin; a mass of exactly 0.0 stays 0.0.)  The
answer is therefore the ``m̂`` and likelihood of a sweep to ``upper``,
bit for bit, wherever earlier calls left the sweep — short of ``x``'s
peak (it walks on), past it (nothing to do), or past ``upper`` itself.
Only then can the tracked peak lie beyond the cap; that one case
(``first[x] > upper``) re-sweeps column ``x`` alone over ``[0, upper]``,
fewer rows than the shared sweep has already paid for.  The sweep
object is single-threaded by contract: the engine and the DES
coordinator each call ``estimate`` from one thread, and grid workers are
processes with a sweep each.  (The live coordinator does not estimate:
its posterior reads :func:`occupancy_likelihoods` and
:func:`attacked_count_log_pmf` directly.)

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
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .combinatorics import (
    log1mexp_many,
    logsumexp,
    survival_log_probabilities,
    survival_probabilities,
)

__all__ = [
    "BotEstimate",
    "occupancy_pmf",
    "occupancy_likelihoods",
    "attacked_count_pmf",
    "attacked_count_log_pmf",
]

#: Bracket width below which the weighted estimator's refinement does the
#: historical exhaustive scan; wider brackets (only reachable at
#: ``N >> 10^5``) are narrowed geometrically first.
_REFINE_SCAN_LIMIT = 4096

#: Points of the weighted estimator's geometric coarse grid (and of each
#: narrowing grid inside a wide bracket).
_GRID_CANDIDATES = 64


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


def _check_bins(n_bins: int) -> None:
    """Reject an empty pool, in the one wording every entry point uses."""
    if n_bins < 1:
        raise ValueError(f"n_bins={n_bins} must be >= 1")


def _occupancy_rows(n_bins: int, n_columns: int) -> Iterator[np.ndarray]:
    """Rows ``m = 0, 1, 2, …`` of the occupancy table, one ball per step.

    Yields ``f(m, 0..n_columns − 1)`` forever as whole-array updates.
    Column ``k`` of a step reads columns ``k`` and ``k − 1`` only, so a
    row cut to its first ``n_columns`` columns carries the same bits a
    full ``n_bins + 1``-wide row would — callers that read column ``x``
    pass ``n_columns = x + 1``.  Each step is the seed expression
    ``(row[k] · stay[k]) + (row[k−1] · grow[k])`` as three separate
    ufunc calls into preallocated buffers, so outputs stay bit-identical
    to the scalar reference.

    The yielded array is a live buffer, overwritten two steps later:
    read (or copy) what you need before advancing.
    """
    arange = np.arange(n_columns, dtype=np.float64)
    stay = arange / n_bins
    grow = ((n_bins - arange + 1) / n_bins)[1:]
    row = np.zeros(n_columns, dtype=np.float64)
    row[0] = 1.0
    ahead = np.empty_like(row)
    carry = np.empty_like(grow)
    while True:
        yield row
        np.multiply(row, stay, out=ahead)
        np.multiply(row[:-1], grow, out=carry)
        tail = ahead[1:]
        np.add(tail, carry, out=tail)
        row, ahead = ahead, row


def occupancy_pmf(n_balls: int, n_bins: int) -> np.ndarray:
    """Distribution of the number of occupied bins.

    Returns an array ``pmf`` of length ``n_bins + 1`` with
    ``pmf[x] = P[exactly x bins non-empty]`` after throwing ``n_balls``
    balls uniformly into ``n_bins`` bins.

    Example::

        >>> occupancy_pmf(2, 2)
        array([0. , 0.5, 0.5])
    """
    _check_bins(n_bins)
    if n_balls < 0:
        raise ValueError(f"n_balls={n_balls} must be >= 0")
    rows = _occupancy_rows(n_bins, n_bins + 1)
    return next(islice(rows, n_balls, None)).copy()


def occupancy_likelihoods(
    n_attacked: int, n_bins: int, upper: int
) -> np.ndarray:
    """``L[m] = P[X = n_attacked | m bots, n_bins replicas]`` for all ``m``.

    Single recurrence sweep over ``m ∈ [0, upper]`` carrying columns
    ``0..n_attacked``; column ``n_attacked`` of each row is collected.
    Linear-space values, exact where they do not underflow.
    """
    _check_bins(n_bins)
    if upper < 0:
        raise ValueError(f"upper={upper} must be >= 0")
    if not 0 <= n_attacked <= n_bins:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_bins}]"
        )
    rows = _occupancy_rows(n_bins, n_attacked + 1)
    return np.array(
        [row.item(n_attacked) for row in islice(rows, upper + 1)],
        dtype=np.float64,
    )


#: Replica counts whose shared sweep is kept between estimates.
_SWEEP_CACHE_SIZE = 8


class _OccupancySweep:
    """The occupancy table of one replica count, walked once and resumed.

    Holds the full-width row generator, the ball count it has reached
    and, for every column ``k``, the best ``f(·, k)`` seen so far with
    the *first* ball count that reached it (module docstring).  Not
    thread-safe: every driver estimates from one thread.
    """

    def __init__(self, n_bins: int) -> None:
        self._rows = _occupancy_rows(n_bins, n_bins + 1)
        self._row = next(self._rows)
        self.balls = 0
        self.peak = self._row.copy()
        self.first = np.zeros(n_bins + 1, dtype=np.int64)
        self._better = np.empty(n_bins + 1, dtype=np.bool_)

    def first_maximum(self, n_attacked: int, upper: int) -> tuple[int, float]:
        """``(first[x], peak[x])`` with column ``x`` settled up to ``upper``.

        Advances only while ``balls < upper`` and the row reached does
        not certify the column.  When the sweep already stands past
        ``upper`` the returned ``first[x]`` may exceed it; the caller
        checks.  A walk that raises evicts the cached sweeps: the next
        estimate starts a fresh one.
        """
        try:
            while self.balls < upper and not self._certifies(n_attacked):
                self._advance()
        except BaseException:
            # An interrupt between the row step and the tracking would
            # leave a cached sweep one row out of step with itself.
            _occupancy_sweep.cache_clear()
            raise
        return self.first.item(n_attacked), self.peak.item(n_attacked)

    def _certifies(self, column: int) -> bool:
        """Whether the row reached proves ``peak[column]`` is final.

        True when ``f(balls, x)`` is below the peak and the mass at or
        left of ``x`` is below half of it.  A row that raises or ties the
        peak cannot certify — there ``S_m ≥ f(m, x) = peak`` — and skips
        the sum.
        """
        best = self.peak.item(column)
        return bool(
            self._row.item(column) < best
            and np.add.reduce(self._row[: column + 1]) < 0.5 * best
        )

    def _advance(self) -> None:
        """One more ball; every column the new row strictly raises moves."""
        self._row = next(self._rows)
        self.balls += 1
        np.greater(self._row, self.peak, out=self._better)
        np.copyto(self.peak, self._row, where=self._better)
        np.copyto(self.first, self.balls, where=self._better)


@lru_cache(maxsize=_SWEEP_CACHE_SIZE)
def _occupancy_sweep(n_bins: int) -> _OccupancySweep:
    """The process's shared sweep for ``n_bins`` replicas."""
    return _OccupancySweep(n_bins)


def _check_uniform(n_attacked: int, n_replicas: int, upper_bound: int) -> None:
    """The arguments both uniform estimators accept, and no others."""
    _check_bins(n_replicas)
    if not 0 <= n_attacked <= n_replicas:
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {n_replicas}]"
        )
    if upper_bound < n_attacked:
        raise ValueError(
            "upper_bound must be at least the attacked replica count "
            f"(got {upper_bound} < {n_attacked})"
        )


def _estimate_mle(
    n_attacked: int, n_replicas: int, upper_bound: int
) -> BotEstimate:
    """Exact occupancy MLE of the persistent-bot count (Section V).

    Implementation behind ``method="mle"`` of :func:`repro.core.api.
    estimate`.

    Args:
        n_attacked: observed attacked-replica count ``X``.
        n_replicas: shuffling replica count ``P``.
        upper_bound: the largest admissible ``m`` — the paper uses the total
            number of clients assigned to attacked replicas.
    """
    _check_uniform(n_attacked, n_replicas, upper_bound)
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
    # Only m >= X can produce X attacked replicas.
    first, peak = _occupancy_sweep(n_replicas).first_maximum(
        n_attacked, upper_bound
    )
    if first <= upper_bound:
        # A column that never rose above 0.0 keeps first = 0.
        m_hat = max(n_attacked, first)
    else:
        # An earlier, looser cap took the shared sweep past this one and
        # the peak it found lies beyond it: sweep this column alone, over
        # fewer rows than are already paid for.
        likelihoods = occupancy_likelihoods(
            n_attacked, n_replicas, upper_bound
        )
        m_hat = n_attacked + int(np.argmax(likelihoods[n_attacked:]))
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
    """Closed-form moment-matching estimator (``method="moment"``).

    Accepts exactly the arguments :func:`_estimate_mle` accepts.
    """
    _check_uniform(n_attacked, n_replicas, upper_bound)
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
    sizes: Sequence[int] | np.ndarray,
    n_clients: int,
    n_bots: int | Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Log-space Poisson-binomial pmf of the attacked-replica count.

    Same model as :func:`attacked_count_pmf` but the convolution runs
    entirely in log space (``logaddexp`` steps over ``log p_i`` /
    ``log q_i``), so tail probabilities that underflow linear floats at
    paper scale stay resolved.  The result is normalized in log space by
    subtracting the ``logsumexp`` of the convolution — never by
    linear-domain division.

    ``n_bots`` may be a 1-D array of bot counts: one row per count, each
    the bits of the scalar call (the one-row case).
    """
    xs = np.asarray(sizes, dtype=np.int64)
    bots = np.asarray(n_bots, dtype=np.int64)
    # log p_i exact from the lgamma difference (no exp), one row per m.
    log_p = survival_log_probabilities(n_clients, bots.reshape(-1), xs)
    # log q_i = log(1 - p_i) via the stable complement.
    log_q = log1mexp_many(log_p)
    # A replica that can never be attacked (p_i == 1 exactly: empty, or
    # m == 0) steps by logaddexp(x + 0.0, -inf) == x: skipped, bit for
    # bit, in whichever rows that holds.
    log_pmf = np.full((bots.size, xs.size + 1), -np.inf, dtype=np.float64)
    log_pmf[:, 0] = 0.0
    edge = np.full((bots.size, 1), -np.inf)
    for i in range(xs.size):
        shifted = np.concatenate((edge, log_pmf[:, :-1]), axis=1)
        log_pmf = np.logaddexp(
            log_pmf + log_p[:, i : i + 1], shifted + log_q[:, i : i + 1]
        )
    # Normalize with logsumexp, not linear division: the
    # logaddexp chain drifts a few ulp off sum == 1 and the subtraction
    # re-anchors it without leaving log space.
    log_pmf -= np.array([logsumexp(row) for row in log_pmf]).reshape(-1, 1)
    return log_pmf.reshape(bots.shape + (xs.size + 1,))


def _estimate_weighted(
    n_attacked: int,
    sizes: Sequence[int] | np.ndarray,
    n_clients: int,
) -> BotEstimate:
    """MLE of the bot count for *non-uniform* group sizes.

    Implementation behind ``method="weighted"`` of :func:`repro.core.api.
    estimate`: maximizes the Poisson-binomial likelihood of
    :func:`attacked_count_pmf` over ``m`` via a geometric candidate grid
    with local refinement.

    Args:
        n_attacked: observed attacked-replica count ``X``.
        sizes: planned group sizes ``x_1..x_P`` of the observed shuffle.
        n_clients: total clients ``N`` in the shuffle; must equal
            ``sum(sizes)``.
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

    def log_likelihood(m: int) -> float:
        pmf = attacked_count_pmf(xs, n_clients, m)
        value = float(pmf[n_attacked])
        if value > 0.0:
            return math.log(value)
        # Linear underflow: re-resolve the tail in log space.
        return float(attacked_count_log_pmf(xs, n_clients, m)[n_attacked])

    lo, hi = n_attacked, n_clients
    grid = np.unique(
        np.geomspace(max(lo, 1), hi, num=min(_GRID_CANDIDATES, hi - lo + 1))
        .round()
        .astype(np.int64)
    )
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size == 0:
        grid = np.array([lo], dtype=np.int64)
    coarse_best = max(grid, key=log_likelihood)
    # Local refinement between the neighbouring grid points.
    position = int(np.searchsorted(grid, coarse_best))
    left = int(grid[position - 1]) if position > 0 else lo
    right = int(grid[position + 1]) if position + 1 < grid.size else hi
    while right - left + 1 > _REFINE_SCAN_LIMIT:
        # Bracket too wide to scan (only reachable at N >> 10^5): narrow
        # it with another geometric grid before the exhaustive pass.
        inner = np.unique(
            np.geomspace(max(left, 1), right, num=_GRID_CANDIDATES)
            .round()
            .astype(np.int64)
        )
        inner = inner[(inner >= left) & (inner <= right)]
        inner_best = max(inner, key=log_likelihood)
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
    m_hat = max(window, key=log_likelihood)
    return BotEstimate(
        m_hat=int(m_hat),
        n_attacked=n_attacked,
        n_replicas=n_replicas,
        upper_bound=n_clients,
        log_likelihood=log_likelihood(int(m_hat)),
    )
