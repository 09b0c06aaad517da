"""Trust-weighted prior over the attack scale (log-space).

Zhou et al. (1903.10102) show shuffling decisions improve when
per-client suspicion feeds the planner.  Here the bridge is the
attack-scale estimate: the trust table's *low-trust mass* over the
clients of the attacked replicas — ``sum(1 - trust)`` — is an expected
bot count under the trust model, and this module shapes it into a
log-prior that the live posterior (:class:`repro.core.policy.
PosteriorPolicy`) adds to the occupancy log-likelihood whenever it
starts afresh.

The prior is Laplace-shaped around the expected count and constructed
directly in the log domain (no ``log(exp(...))`` round trip), with a
scale proportional to the expectation itself so its pull is relative:
being off by 5 bots matters at ``expected=5``, not at
``expected=500``.  ``strength=0`` yields the zero array — a no-op
prior; the posterior never asks for one, and at strength 0 falls back
to its trust-free prior ``-log(m + 1)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bot_count_log_prior"]


def bot_count_log_prior(
    upper: int, expected: float, strength: float = 1.0
) -> np.ndarray:
    """Log-prior ``log p(m)`` (unnormalised) for ``m in [0, upper]``.

    Args:
        upper: largest bot count the estimator will consider; the
            returned array has ``upper + 1`` entries.
        expected: expected bot count (e.g. low-trust mass of the
            clients on attacked replicas); clipped into ``[0, upper]``.
        strength: prior weight; 0 gives a flat (all-zero) log-prior.

    Returns:
        ``-strength * |m - expected| / max(1, expected)`` — already in
        log space, so the posterior simply adds it to its
        log-likelihood (and normalises the sum).
    """
    if upper < 0:
        raise ValueError(f"upper={upper} must be >= 0")
    if strength < 0:
        raise ValueError(f"strength={strength} must be >= 0")
    center = min(max(float(expected), 0.0), float(upper))
    m = np.arange(upper + 1, dtype=np.float64)
    scale = max(1.0, center)
    return (-strength / scale) * np.abs(m - center)
