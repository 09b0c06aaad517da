"""The graduated trust ladder: TRUSTED → WATCH → THROTTLED → DENIED.

Mirage-style graceful degradation (Mittal et al.) instead of the
paper's binary whitelist: a client's tier follows its trust score
through floors with hysteresis.  Demotion is immediate (an attacker
should not enjoy a grace period), promotion climbs one rung at a time
and only after a dwell period, and requires the score to clear the
target floor by the hysteresis margin — a score oscillating around a
floor settles into the lower tier instead of flapping.
"""

from __future__ import annotations

import enum

from .config import THROTTLED_FLOOR, TrustConfig

__all__ = [
    "TrustTier",
    "tier_for_score",
    "TIER_NAMES",
    "TIERS_BY_VALUE",
]


class TrustTier(enum.IntEnum):
    """Admission tiers, ordered least to most trusted.

    Enforcement (service backend and cloudsim replica alike):
    TRUSTED and WATCH pass straight to the token bucket; THROTTLED
    passes one request in :attr:`TrustConfig.throttle_every` and
    answers the rest with the THROTTLED wire verdict; DENIED is
    refused outright (DENY), spending neither tokens nor compute.
    """

    DENIED = 0
    THROTTLED = 1
    WATCH = 2
    TRUSTED = 3


#: stable render order for tables and counters (most trusted first).
TIER_NAMES: tuple[str, ...] = tuple(
    tier.name for tier in sorted(TrustTier, reverse=True)
)

#: members indexed by their integer value: the per-request paths work
#: on plain ints and index this instead of calling the enum constructor.
TIERS_BY_VALUE: tuple[TrustTier, ...] = tuple(sorted(TrustTier))


def tier_for_score(score: float, config: TrustConfig) -> TrustTier:
    """The tier a score maps to with *no* hysteresis or dwell.

    Used for a client's very first classification; subsequent moves go
    through the ladder logic in :mod:`repro.trust.profile`.
    """
    if score >= config.trusted_floor:
        return TrustTier.TRUSTED
    if score >= config.watch_floor:
        return TrustTier.WATCH
    if score >= THROTTLED_FLOOR:
        return TrustTier.THROTTLED
    return TrustTier.DENIED
