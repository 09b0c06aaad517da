"""Exact and log-space combinatorics used by the shuffling optimization.

Every probability in the paper's model (Section IV-A) is a ratio of binomial
coefficients.  At paper scale (``N`` up to 150,000 clients) the coefficients
themselves overflow any fixed-width float, so all public helpers work in
log-space via ``math.lgamma`` and only exponentiate ratios, which are always
in ``[0, 1]``.

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

import numpy as np

__all__ = [
    "log_binomial",
    "binomial_ratio",
    "survival_probability",
    "survival_probabilities",
    "survival_log_probabilities",
    "expected_saved_single",
    "expected_saved_single_many",
    "hypergeometric_pmf",
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
        # domain: log log C(n, 0) = log C(n, n) = log 1 = 0
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def binomial_ratio(n1: int, k1: int, n2: int, k2: int) -> float:
    """Return ``C(n1, k1) / C(n2, k2)`` computed stably in log-space.

    Raises :class:`ZeroDivisionError` when the denominator is zero.
    """
    log_den = log_binomial(n2, k2)
    if math.isinf(log_den):
        raise ZeroDivisionError(f"C({n2}, {k2}) is zero")
    log_num = log_binomial(n1, k1)
    if math.isinf(log_num):
        return 0.0
    # A *generic* coefficient ratio may legitimately exceed 1 (callers
    # like survival_probability clamp at their own boundary where the
    # [0, 1] contract actually holds).
    # reprolint: disable=P12
    return math.exp(log_num - log_den)


def survival_probability(n: int, m: int, x: int) -> float:
    """Probability that a replica holding ``x`` of ``n`` clients is bot-free.

    This is the paper's ``p_i = C(N - x_i, M) / C(N, M)``: the chance that
    all ``m`` bots land on the other ``n - x`` client slots when the ``m``
    bot identities are a uniform random subset of the ``n`` clients.

    Example::

        >>> round(survival_probability(4, 1, 1), 6)  # 1 bot in 4 clients
        0.75
    """
    if not 0 <= x <= n:
        raise ValueError(f"x={x} must be within [0, {n}]")
    if not 0 <= m <= n:
        raise ValueError(f"m={m} must be within [0, {n}]")
    if m == 0:
        return 1.0
    # C(n-x, m) <= C(n, m), but the two lgamma sums cancel differently,
    # so exp() can land a few ulp above 1 (the survival_probabilities
    # clip bug class); clamp at the probability boundary.
    return min(1.0, binomial_ratio(n - x, m, n, m))


def survival_probabilities(n: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`survival_probability` over an array of group sizes.

    Uses ``scipy``-free log-gamma vectorization so it stays fast for the
    ``N = 150,000`` sweeps in the Figure 8-10 simulations.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        return np.zeros(0, dtype=np.float64)
    out = np.exp(_log_survival(n, m, xs))
    # The numerator uses scipy's gammaln while the denominator uses
    # math.lgamma; their last-ulp disagreement can push exp() a few 1e-16
    # above 1.0 (e.g. at x = 0, where the true ratio is exactly 1).  Clamp
    # to the probability range rather than leak >1 values downstream
    # (np.clip's two elementwise operations, without its wrapper's cost).
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def survival_log_probabilities(
    n: int, m: int, xs: np.ndarray
) -> np.ndarray:
    """``log p_i`` for every group size — the log-space survival kernel.

    Same quantity as :func:`survival_probabilities` but *kept* in log
    space (``log C(n - x, m) - log C(n, m)``, ``-inf`` for impossible
    configurations), for callers that would underflow in linear space —
    the Poisson-binomial convolution at paper scale chief among them.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        return np.zeros(0, dtype=np.float64)
    return _log_survival(n, m, xs)


def _log_survival(n: int, m: int, xs: np.ndarray) -> np.ndarray:
    """The kernel behind both survival helpers, for a non-empty int64 ``xs``.

    Validates once, then evaluates ``log C(n − x, m) − log C(n, m)``
    elementwise.  The ``-inf`` mask is built only when some size leaves
    the support ``x <= n − m``; inside it the same operations run on the
    whole array, so every element is the masked path's, bit for bit.
    """
    largest = int(xs.max())
    if xs.min() < 0 or largest > n:
        raise ValueError("group sizes must be within [0, n]")
    if not 0 <= m <= n:
        raise ValueError(f"m={m} must be within [0, {n}]")
    if m == 0:
        # domain: log — log 1 for every replica.
        return np.zeros(xs.shape, dtype=np.float64)
    log_den = (
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    )
    rest = n - xs
    # log C(rest, m) - log C(n, m); C(rest, m) = 0 whenever rest < m.
    if largest <= n - m:
        out = _log_ratio(rest.astype(np.float64), m) - log_den
    else:
        out = np.full(xs.shape, -np.inf, dtype=np.float64)
        ok = rest >= m
        out[ok] = _log_ratio(rest[ok].astype(np.float64), m) - log_den
    # A log-probability can land a few ulp above 0 for the same
    # numerator/denominator lgamma mismatch the linear path clamps.
    return np.minimum(out, 0.0, out=out)


def _log_ratio(restf: np.ndarray, m: int) -> np.ndarray:
    """``log C(rest, m)`` elementwise over float ``rest >= m``."""
    return (
        _lgamma(restf + 1.0)
        - _lgamma(float(m) + 1.0)
        - _lgamma(restf - float(m) + 1.0)
    )


def _lgamma(values: np.ndarray | float) -> np.ndarray:
    """``lgamma`` broadcast over numpy arrays."""
    # domain: log vectorized lgamma (scipy gammaln or np.vectorize)
    return _VECTOR_LGAMMA(values)


def _make_vector_lgamma():
    try:
        # Optional accuracy upgrade only: the except arm keeps core
        # working on stdlib+numpy alone, so the layering contract's
        # intent (no hard third-party deps in core) is preserved.
        from scipy.special import gammaln  # reprolint: disable=P1

        return gammaln
    except ImportError:  # pragma: no cover - scipy is an install requirement
        return np.vectorize(math.lgamma, otypes=[np.float64])


_VECTOR_LGAMMA = _make_vector_lgamma()


def expected_saved_single(n: int, m: int, x: int) -> float:
    """Expected benign clients saved by one replica of size ``x``.

    The paper's per-replica objective term ``f(x) = x * p(x)``: all ``x``
    clients are saved iff the replica is bot-free (then every one of them is
    benign), otherwise none are.
    """
    return x * survival_probability(n, m, x)


def expected_saved_single_many(n: int, m: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized ``f(x) = x * p(x)`` over group sizes ``xs``."""
    xs = np.asarray(xs, dtype=np.int64)
    return xs.astype(np.float64) * survival_probabilities(n, m, xs)


def hypergeometric_pmf(total: int, marked: int, draws: int, hits: int) -> float:
    """``P[b = hits]`` when drawing ``draws`` of ``total`` items, ``marked``
    of which are special — the paper's ``Pr(b)`` in Equation 3.

    ``Pr(b) = C(M, b) C(N − M, a − b) / C(N, a)`` with ``total = N``,
    ``marked = M``, ``draws = a``, ``hits = b``.
    """
    if not 0 <= marked <= total:
        raise ValueError("marked must be within [0, total]")
    if not 0 <= draws <= total:
        raise ValueError("draws must be within [0, total]")
    log_den = log_binomial(total, draws)
    log_num = log_binomial(marked, hits) + log_binomial(
        total - marked, draws - hits
    )
    if math.isinf(log_num):
        return 0.0
    return min(1.0, math.exp(log_num - log_den))


def hypergeometric_pmf_vector(total: int, marked: int, draws: int) -> np.ndarray:
    """Full hypergeometric pmf over ``b ∈ [0, min(draws, marked)]``.

    Returns an array of length ``min(draws, marked) + 1`` summing to 1
    (up to float error).  Used by the paper-literal dynamic program, which
    must enumerate every possible bot count ``b`` on the split-off replica.
    """
    upper = min(draws, marked)
    b = np.arange(upper + 1, dtype=np.float64)
    markedf = float(marked)
    restf = float(total - marked)
    drawsf = float(draws)
    log_den = log_binomial(total, draws)
    log_cmb = _lgamma(markedf + 1) - _lgamma(b + 1) - _lgamma(markedf - b + 1)
    rest_draws = drawsf - b
    log_crest = (
        _lgamma(restf + 1)
        - _lgamma(rest_draws + 1)
        - _lgamma(restf - rest_draws + 1)
    )
    with np.errstate(invalid="ignore"):
        logs = log_cmb + log_crest - log_den
    # Entries where (a - b) > (N - M) are impossible: C(rest, a-b) = 0.
    impossible = rest_draws > restf
    logs = np.where(impossible, -np.inf, logs)
    return np.clip(np.exp(logs), 0.0, 1.0)
