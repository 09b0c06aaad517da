"""Exact and log-space combinatorics used by the shuffling optimization.

Every probability in the paper's model (Section IV-A) is a ratio of binomial
coefficients.  At paper scale (``N`` up to 150,000 clients) the coefficients
themselves overflow any fixed-width float, so all public helpers work in
log-space via ``math.lgamma`` and only exponentiate ratios, which are always
in ``[0, 1]``.

Equation 1's per-replica term ``x · p(x)`` has two routes with the same
bits.  :func:`expected_saved_single_many` is the array kernel, for the
many-point callers (``dp_fast``'s table of ``f`` at every size).
:func:`expected_saved_single_few` computes a few terms in Python floats,
for the few-point callers of every greedy plan: ω's one or two points
(:func:`repro.core.objective.single_replica_optimum`) and the runs a
greedy or even plan is scored over (``objective._expected_saved_runs``).
Which route a caller takes is fixed by the call site, not by a size
threshold.  The posterior's columns over the bot count go through
:func:`survival_log_probabilities`.

Vocabulary (paper Table I):

``N``
    total number of clients, benign clients plus persistent bots.
``M``
    number of persistent bots hidden among the ``N`` clients.
``P``
    number of shuffling replica servers.
``x_i``
    number of clients assigned to the *i*-th shuffling replica.
``p_i``
    probability that the *i*-th replica is bot-free,
    ``p_i = C(N - x_i, M) / C(N, M)``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import index
from typing import Sequence

import numpy as np

__all__ = [
    "log_binomial",
    "survival_probabilities",
    "survival_log_probabilities",
    "expected_saved_single_many",
    "expected_saved_single_few",
    "hypergeometric_pmf_vector",
    "logsumexp",
    "log1mexp",
    "log1mexp_many",
]

#: Mächler's split point for :func:`log1mexp` (arXiv accuracy note on
#: ``log1mexp``/``log1pexp``): below ``log 1/2`` the ``log1p(-exp(x))``
#: branch is more accurate, above it ``log(-expm1(x))`` is.
_LOG_HALF = math.log(0.5)


def logsumexp(log_values: np.ndarray) -> float:
    """Stable ``log(sum(exp(log_values)))`` over an array of logs.

    The peak is factored out before exponentiation, so intermediate sums
    stay in float range even when entries reach magnitudes around
    ``±10^6`` (paper scale: ``log C(N, M)`` for ``N = 150,000`` is a few
    hundred thousand).  ``-inf`` entries (``log 0``) drop out naturally;
    an empty or all-``-inf`` input returns ``-inf``.

    Example::

        >>> probs = np.array([0.25, 0.25, 0.5])
        >>> abs(logsumexp(np.log(probs))) < 1e-12  # log(sum) = log 1
        True
    """
    arr = np.asarray(log_values, dtype=np.float64)
    if arr.size == 0:
        return float("-inf")
    peak = float(np.max(arr))
    if math.isinf(peak):
        # All -inf (every term is log 0), or a +inf term dominates.
        return peak
    # This is the canonical implementation the P13 log(sum(exp)) finding
    # points callers at — the one place the naive shape is the algorithm.
    # reprolint: disable=P13
    return peak + math.log(float(np.sum(np.exp(arr - peak))))


def log1mexp(x: float) -> float:
    """Stable ``log(1 - exp(x))`` for ``x <= 0`` — the log-complement.

    Computing the complement of a probability held in log-space (e.g.
    "at least one replica attacked" from a bot-free log-probability)
    via ``log(1 - exp(x))`` loses all precision when ``x`` is near 0 or
    very negative; this uses Mächler's two-branch form instead.

    Example::

        >>> abs(log1mexp(math.log(0.5)) - math.log(0.5)) < 1e-15
        True
    """
    if x > 0.0:
        raise ValueError(f"log1mexp requires x <= 0, got {x}")
    # exact-sentinel: x == 0 exactly means exp(x) == 1, so log(0) = -inf
    if x == 0.0:
        return float("-inf")
    if x > _LOG_HALF:
        # exp(x) near 1: expm1 keeps the cancellation out of the log.
        return math.log(-math.expm1(x))
    # exp(x) small: log1p absorbs it without cancellation.  Canonical
    # implementation of the shape the P13 log1p(-exp(x)) finding flags.
    # reprolint: disable=P13
    return math.log1p(-math.exp(x))


def log1mexp_many(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`log1mexp` — ``log(1 - exp(x))`` elementwise.

    Mirrors the scalar helper's Mächler two-branch form; ``x == 0``
    entries (probability exactly 1) come out as ``-inf`` and ``x`` must
    be ``<= 0`` everywhere.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and float(np.max(arr)) > 0.0:
        raise ValueError("log1mexp_many requires x <= 0 everywhere")
    near_one = arr > _LOG_HALF  # exp(x) near 1: expm1 branch
    with np.errstate(divide="ignore"):
        # Both branches are evaluated on the full array (numpy has no
        # lazy select); the inaccurate lane is discarded by the where.
        # Canonical vector form of the shape the P13 log1p(-exp(x))
        # finding flags — same justification as the scalar log1mexp.
        out = np.where(
            near_one,
            np.log(-np.expm1(arr)),
            # reprolint: disable=P13
            np.log1p(-np.exp(np.minimum(arr, _LOG_HALF))),
        )
    return out


@lru_cache(maxsize=1 << 20)
def log_binomial(n: int, k: int) -> float:
    """Return ``log C(n, k)``, or ``-inf`` when the coefficient is zero.

    ``C(n, k) = 0`` for ``k < 0`` or ``k > n``; we mirror that convention so
    probability ratios built from impossible configurations come out as 0
    rather than raising.
    """
    if k < 0 or k > n or n < 0:
        return float("-inf")
    if k == 0 or k == n:
        # log C(n, 0) = log C(n, n) = log 1 = 0
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def survival_probabilities(n: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Probability that each replica, holding ``x`` of ``n`` clients, is
    bot-free — the paper's ``p_i = C(N - x_i, M) / C(N, M)`` over an
    array of group sizes.

    That is the chance that all ``m`` bots land on the other ``n - x``
    client slots when the ``m`` bot identities are a uniform random
    subset of the ``n`` clients.

    Example::

        >>> survival_probabilities(4, 1, [0, 1, 4]).round(6).tolist()
        [1.0, 0.75, 0.0]

    The numerator's ``log t!`` terms are gathered from one module-level
    table of ``gammaln(t + 1.0)`` (see :func:`_log_factorials`), so a
    call costs a few numpy operations whatever ``N``, and the
    ``N = 150,000`` sweeps of the Figure 8-10 simulations evaluate no
    log-gamma at all once the table covers ``N``.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        return np.zeros(0, dtype=np.float64)
    out = np.exp(_log_survival(n, m, xs))
    # The numerator reads the log-factorial table (scipy's gammaln) while
    # the denominator uses math.lgamma; their last-ulp disagreement can
    # push exp() a few 1e-16 off the exact ratio.  Clamp to the
    # probability range rather than leak >1 values downstream (exp() is
    # never negative, so the upper bound is the only half of np.clip that
    # can act), and give an empty replica, whose ratio is exactly 1, its
    # exact 1.0.
    np.minimum(out, 1.0, out=out)
    out[xs == 0] = 1.0
    return out


def survival_log_probabilities(
    n: int, m: int | np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """``log p_i`` for every group size — the log-space survival kernel.

    Same quantity as :func:`survival_probabilities` but *kept* in log
    space (``log C(n - x, m) - log C(n, m)``, ``-inf`` for impossible
    configurations), for callers that would underflow in linear space —
    the Poisson-binomial convolution at paper scale chief among them.
    ``m`` may be a 1-D array of bot counts: the result then has one row
    per count, each row the bits of the scalar call.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if np.ndim(m):
        m = np.asarray(m, dtype=np.int64).reshape(-1, 1)
    if xs.size == 0 or np.size(m) == 0:
        return np.zeros(np.shape(m)[:1] + xs.shape, dtype=np.float64)
    return _log_survival(n, m, xs)


def _log_survival(n: int, m: int | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The kernel behind both survival helpers, for a non-empty int64 ``xs``.

    Validates once, then evaluates ``log C(n − x, m) − log C(n, m)``
    elementwise, for one bot count ``m`` or a non-empty ``(R, 1)`` column
    of them (row ``k`` then holds the scalar ``m[k]``'s bits).  The
    ``-inf`` mask is built only when some size leaves the support
    ``x <= n − m``; every element sees the same operations either way.
    """
    largest = int(xs.max())
    if xs.min() < 0 or largest > n:
        raise ValueError("group sizes must be within [0, n]")
    column = isinstance(m, np.ndarray)
    fewest, most = (int(m.min()), int(m.max())) if column else (m, m)
    if not 0 <= fewest <= most <= n:
        raise ValueError(f"m={m} must be within [0, {n}]")
    if most == 0:
        # log 1 for every replica.
        return np.zeros(np.shape(m)[:1] + xs.shape, dtype=np.float64)
    # One expression for both branches, so a column row is the scalar
    # call's bits: ``_MATH_LGAMMA`` is ``math.lgamma`` elementwise.  The
    # scalar branch calls ``math.lgamma`` inline (np.vectorize costs
    # ~10 µs a call, and a greedy plan takes this branch).
    log_den = (
        math.lgamma(n + 1) - _MATH_LGAMMA(m + 1) - _MATH_LGAMMA(n - m + 1)
        if column
        else math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    )
    rest = n - xs
    # log C(rest, m) - log C(n, m); C(rest, m) = 0 whenever rest < m.
    if largest <= n - most:
        out = _log_ratio(rest, m, n)
        out -= log_den
    else:
        # At max(rest, m) every term is finite, and no index is negative.
        out = _log_ratio(np.maximum(rest, m), m, n)
        out -= log_den
        out[rest < m] = -np.inf
    # A log-probability can land a few ulp above 0 for the same
    # numerator/denominator lgamma mismatch the linear path clamps.
    return np.minimum(out, 0.0, out=out)


def _log_ratio(rest: np.ndarray, m: int | np.ndarray, top: int) -> np.ndarray:
    """``log C(rest, m)`` elementwise over int ``m <= rest <= top``."""
    log_factorial = _log_factorials(top)
    return log_factorial[rest] - log_factorial[m] - log_factorial[rest - m]


def _lgamma(values: np.ndarray | float) -> np.ndarray:
    """``lgamma`` broadcast over numpy arrays."""
    # vectorized lgamma (scipy gammaln or np.vectorize)
    return _VECTOR_LGAMMA(values)


#: ``math.lgamma`` over numpy arrays, the very bits of the scalar call.
_MATH_LGAMMA = np.vectorize(math.lgamma, otypes=[np.float64])


def _make_vector_lgamma():
    try:
        # The except arm lets core import and run on stdlib + numpy
        # alone (the layering contract's intent: no hard third-party
        # deps in core), but it does not decide the same: the log t!
        # table then holds math.lgamma's bits, not gammaln's, which
        # moves near-ties — _greedy_runs(5, 2, 20) becomes ((2, 0),
        # (1, 5), (0, 15)) and four CLOSED_LOOP_GOLDEN seeds of
        # tests/core/test_policy.py change.  Every pinned digest assumes
        # scipy, an install requirement.
        from scipy.special import gammaln  # reprolint: disable=P1

        return gammaln
    except ImportError:  # pragma: no cover - scipy is an install requirement
        return _MATH_LGAMMA


_VECTOR_LGAMMA = _make_vector_lgamma()

#: Largest ``t`` whose ``log t!`` the shared table holds (8 MiB of
#: float64).  A kernel reaching past it evaluates ``lgamma`` directly.
_LOG_FACTORIAL_CAP = 1 << 20

#: ``log t!`` for ``t = 0 .. size − 1``, each entry ``lgamma(t + 1.0)``
#: — the very call the kernels made per element before the table, so a
#: gather returns the same bits.  :func:`_log_factorials` rebinds it to
#: a longer array as larger ``t`` are asked for; an array once handed
#: out is never written again.
_LOG_FACTORIAL = np.zeros(1)  # log 0! = lgamma(1.0) = 0.0 exactly


class _DirectLogFactorial:
    """``log t!`` past the table's cap, read with the table's ``[t]``."""

    def __getitem__(self, t: np.ndarray | int) -> np.ndarray:
        return _lgamma(np.asarray(t, dtype=np.float64) + 1.0)

    def item(self, t: int) -> float:
        """``self[t]`` for one int ``t``, as a Python float (the table's
        ``item``)."""
        return float(self[t])


def _log_factorials(top: int) -> np.ndarray | _DirectLogFactorial:
    """``log t!`` for every int ``t`` in ``[0, top]``, indexed by ``t``.

    Up to :data:`_LOG_FACTORIAL_CAP` this is the shared table, grown to
    cover ``top`` if it does not yet: into a new array (a caller still
    holding the old one reads it unchanged), the old entries copied and
    only the new segment evaluated, at least an eighth of the old size so
    a slowly rising ``N`` does not copy the table every call.  Past the
    cap it is an object evaluating ``lgamma`` on each read, the same
    bits.  Callers index inside ``[0, top]`` only (a negative index
    would wrap around to the far end).
    """
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if top < table.size:
        return table
    if top > _LOG_FACTORIAL_CAP:
        return _DirectLogFactorial()
    size = min(
        max(top + 1, table.size + table.size // 8), _LOG_FACTORIAL_CAP + 1
    )
    grown = np.empty(size)
    grown[: table.size] = table
    # lgamma(t + 1.0) for the new t: each argument an exact integer.
    grown[table.size :] = _lgamma(
        np.arange(table.size + 1, size + 1, dtype=np.float64)
    )
    _LOG_FACTORIAL = grown
    return grown


def expected_saved_single_many(n: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``f(x) = x * p(x)`` over group sizes ``xs``."""
    xs = np.asarray(xs, dtype=np.int64)
    out = survival_probabilities(n, m, xs)
    return np.multiply(out, xs, out=out)  # x · p, each x cast exactly


def expected_saved_single_few(
    n: int, m: int, xs: Sequence[int]
) -> list[float]:
    """:func:`expected_saved_single_many` at a few Python-int sizes, as
    Python floats carrying the array kernel's bits.

    Its callers — ω in :func:`repro.core.objective.
    single_replica_optimum` and the at most five runs of the greedy and
    even plans a greedy plan is scored over — ask for one to five
    terms, where the array kernel's fifteen-odd numpy calls on tiny
    arrays are most of the cost.  Each ``log t!`` is read from the same
    table as a Python float (the table grown exactly as the kernel grows
    it), the subtractions and both clamps are Python float operations in
    the kernel's order, and all the logs are exponentiated in one
    ``np.exp``: numpy's exp, not ``math.exp``, whose last bits differ
    from it on a few percent of inputs.
    """
    n, m = index(n), index(m)
    if not xs:
        return []
    if min(xs) < 0 or max(xs) > n:
        raise ValueError("group sizes must be within [0, n]")
    if not 0 <= m <= n:
        raise ValueError(f"m={m} must be within [0, {n}]")
    if m == 0:
        # exp(log 1) = 1.0 exactly, so each term is x itself.
        return [float(x) for x in xs]
    log_den = (
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    )
    read = _log_factorials(n).item
    log_m = read(m)
    logs = []
    for x in xs:
        rest = n - x
        logs.append(
            min(read(rest) - log_m - read(rest - m) - log_den, 0.0)
            if rest >= m
            else -math.inf  # C(n − x, m) = 0
        )
    return [min(p, 1.0) * x for p, x in zip(np.exp(logs).tolist(), xs)]


def hypergeometric_pmf_vector(total: int, marked: int, draws: int) -> np.ndarray:
    """Full hypergeometric pmf over ``b ∈ [0, min(draws, marked)]``.

    Returns an array of length ``min(draws, marked) + 1`` summing to 1
    (up to float error).  Used by the paper-literal dynamic program, which
    must enumerate every possible bot count ``b`` on the split-off replica.
    """
    if not 0 <= marked <= total:
        raise ValueError("marked must be within [0, total]")
    if not 0 <= draws <= total:
        raise ValueError("draws must be within [0, total]")
    upper = min(draws, marked)
    b = np.arange(upper + 1, dtype=np.int64)
    rest = total - marked
    log_factorial = _log_factorials(total)
    log_den = log_binomial(total, draws)
    log_cmb = (
        log_factorial[marked] - log_factorial[b] - log_factorial[marked - b]
    )
    rest_draws = draws - b
    # Entries where (a - b) > (N - M) are impossible: C(rest, a-b) = 0.
    # Their last index is clipped to 0 (not left to wrap around) and the
    # entry masked below.
    impossible = rest_draws > rest
    log_crest = (
        log_factorial[rest]
        - log_factorial[rest_draws]
        - log_factorial[np.maximum(rest - rest_draws, 0)]
    )
    logs = log_cmb + log_crest - log_den
    logs = np.where(impossible, -np.inf, logs)
    return np.clip(np.exp(logs), 0.0, 1.0)
