"""Attack-scale estimation (paper Section V) — vectorized kernels.

The planners need the persistent-bot count ``M``, which is never observable
directly.  Following MOTAG, the paper estimates it by maximum likelihood
from the one signal the coordination server does see after each shuffle:
``X``, the number of shuffling replicas that came under attack.

Under (near-)uniform assignment, bots fall into replicas like balls into
bins, so ``P[X = x | M = m]`` is the classic occupancy distribution, which
we compute exactly with the standard recurrence

    f(m, x) = f(m−1, x) · x/P  +  f(m−1, x−1) · (P − x + 1)/P ,

executed as whole-array steps, with no per-element stores.  Column
``x`` of a step reads columns ``x`` and ``x − 1`` only, so a sweep cut
to columns ``0..x`` holds the same bits as a full-width one, and one
bottom-up pass yields the likelihood of ``x`` for every candidate ``m``
it visits.

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
object is single-threaded by contract: the engine's ``mle`` calls
``estimate`` from one thread, and grid workers are processes with a
sweep each.  (The posterior every driver runs does not estimate: it
reads :func:`occupancy_likelihoods` and
:func:`attacked_count_log_likelihood` directly.)

Degenerate regime (paper Figure 7, right edge): when **all** replicas are
attacked (``X = P``) the likelihood increases monotonically in ``m`` and
MLE returns its upper bound — a gross overestimate.  Theorem 1 quantifies
when that happens and therefore how many replicas must be provisioned for
the estimate to be informative; see :mod:`repro.analysis.theory`.

Plans are not uniform: a greedy plan is ``ω``-sized groups plus one
bucket.  :func:`attacked_count_log_likelihood` is the likelihood of ``X``
over a plan's actual sizes, computed once per run of equal sizes.

Callers reach the MLE through :func:`repro.core.api.estimate`; see
``docs/core-api.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import index
from typing import Iterator, Sequence

import numpy as np

from .combinatorics import (
    _log_factorials,
    log1mexp_many,
    survival_log_probabilities,
)

__all__ = [
    "BotEstimate",
    "occupancy_pmf",
    "occupancy_likelihoods",
    "attacked_count_log_likelihood",
]


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
            degenerate estimates).
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


def _estimate_mle(
    n_attacked: int, n_replicas: int, upper_bound: int
) -> BotEstimate:
    """Exact occupancy MLE of the persistent-bot count (Section V).

    Implementation behind :func:`repro.core.api.estimate`.

    Args:
        n_attacked: observed attacked-replica count ``X``.
        n_replicas: shuffling replica count ``P``.
        upper_bound: the largest admissible ``m`` — the paper uses the total
            number of clients assigned to attacked replicas.

    The three counts are coerced with :func:`operator.index`, as the
    planners' are: numpy integers pass, a non-integral count raises
    :class:`TypeError`.
    """
    n_attacked, n_replicas, upper_bound = (
        index(n_attacked), index(n_replicas), index(upper_bound)
    )
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


def attacked_count_log_likelihood(
    sizes: Sequence[int] | np.ndarray,
    n_clients: int,
    n_bots: int | Sequence[int] | np.ndarray,
    n_attacked: int,
) -> np.ndarray:
    """``log P[X = n_attacked | m bots]`` over a plan's group sizes.

    The occupancy model behind the uniform MLE assumes (near-)uniform
    sizes; a greedy plan is far from that (``ω``-sized groups plus one
    bucket).  Here each replica's *marginal* attack probability is exact,
    ``q_i = 1 − C(N − x_i, M) / C(N, M)``, and the replicas are taken as
    independent (the weak negative correlation of the fixed bot total is
    ignored), so ``X`` is Poisson-binomial.  Replicas of one size share
    ``q``: a run of ``c`` equal sizes is one ``Binomial(c, q)``, and ``X``
    is the convolution of one binomial per run (``np.unique``).  Every
    run but the one with the most replicas is convolved in log space,
    and that run's binomial is read at ``X − k`` only.  A greedy or even
    plan has at most three runs; a plan whose sizes are all distinct
    convolves one replica at a time.  Empty replicas are never attacked.

    ``n_bots`` may be a 1-D array of bot counts: one value per count,
    each the bits of the scalar call.  The values are not renormalized:
    summed over every ``X`` they give 1 to rounding.  ``n_attacked``
    outside ``[0, len(sizes)]`` raises.
    """
    values, counts = np.unique(
        np.asarray(sizes, dtype=np.int64), return_counts=True
    )
    if not 0 <= n_attacked <= int(counts.sum()):
        raise ValueError(
            f"n_attacked={n_attacked} must be within [0, {int(counts.sum())}]"
        )
    bots = np.asarray(n_bots, dtype=np.int64)
    if values.size == 0:  # no replica: X = 0 for certain
        return np.zeros(bots.shape)
    # log p (a replica of that size holds no bot) and log q = log(1 − p),
    # one row per bot count, one column per run.
    log_p = survival_log_probabilities(n_clients, bots.reshape(-1), values)
    log_q = log1mexp_many(log_p)
    widest = int(np.argmax(counts))
    rest = np.zeros((bots.size, 1))  # log pmf of the other runs' count
    for run in np.flatnonzero(np.arange(values.size) != widest).tolist():
        count = int(counts[run])
        rest = _log_convolve(
            rest,
            _binomial_log_pmf(
                count, log_p[:, run], log_q[:, run], np.arange(count + 1)
            ),
        )
    count = int(counts[widest])
    ks = np.arange(
        max(0, n_attacked - count), min(rest.shape[1] - 1, n_attacked) + 1
    )
    terms = rest[:, ks] + _binomial_log_pmf(
        count, log_p[:, widest], log_q[:, widest], n_attacked - ks
    )
    return np.logaddexp.reduce(terms, axis=1).reshape(bots.shape)


def _binomial_log_pmf(
    count: int,
    log_p: np.ndarray,
    log_q: np.ndarray,
    hits: np.ndarray,
) -> np.ndarray:
    """``log Binomial(count, q)`` at ``hits``, one row per ``(p, q)``.

    ``0 · log 0`` counts as 0, so a replica that is never (``q = 0``) or
    always (``p = 0``) attacked gives a point mass, not ``nan``.
    """
    log_factorial = _log_factorials(count)
    misses = count - hits
    log_choose = (
        log_factorial[count] - log_factorial[hits] - log_factorial[misses]
    )
    shape = (log_p.size, hits.size)
    attacked = np.zeros(shape)
    np.multiply(hits, log_q[:, None], out=attacked, where=hits > 0)
    spared = np.zeros(shape)
    np.multiply(misses, log_p[:, None], out=spared, where=misses > 0)
    return log_choose + attacked + spared


def _log_convolve(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise convolution of two log-pmfs over counts ``0, 1, …``.

    One ``logaddexp`` per column of the narrower operand.
    """
    if left.shape[1] < right.shape[1]:
        left, right = right, left
    width = left.shape[1]
    out = np.full((left.shape[0], width + right.shape[1] - 1), -np.inf)
    for shift in range(right.shape[1]):
        window = out[:, shift : shift + width]
        np.logaddexp(window, left + right[:, shift : shift + 1], out=window)
    return out
