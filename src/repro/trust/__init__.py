"""Adaptive per-client trust: profiles, graduated tiers, persistence.

The paper treats clients as binary — whitelisted or denied — and every
binding and belief dies with the coordinator process.  This package
adds the graceful middle ground (Mirage-style reputation, Mittal et
al.) and the durability the restart/failover path needs:

- :mod:`~repro.trust.config` — :class:`TrustConfig` tunables.
- :mod:`~repro.trust.profile` — per-client rate EMA/variance,
  violation history, and a trust score in [0, 1]; one plain row per
  client, updated one request at a time.
- :mod:`~repro.trust.tiers` — the TRUSTED→WATCH→THROTTLED→DENIED
  ladder with hysteresis and graduated promotion.
- :mod:`~repro.trust.manager` — :class:`TrustManager`, the
  clock-agnostic facade backends consult per request.
- :mod:`~repro.trust.prior` — the low-trust-mass log-prior fed to the
  attack-scale estimators.
- :mod:`~repro.trust.storage` — the :class:`StorageBackend` contract
  (memory / sqlite / atomic JSON file) behind bindings + profiles +
  belief, enabling kill-and-restart recovery.

Layering: stdlib + numpy + :mod:`repro.obs` only (contract P1), so
the live service and the simulators can both embed it.  The layer
never reads a clock — callers inject ``now`` (wall-clock in service,
sim-time in cloudsim; reprolint P2 applies).
"""

from __future__ import annotations

from .config import TrustConfig
from .manager import PROFILE_NAMESPACE, TrustManager
from .prior import bot_count_log_prior
from .profile import ClientProfile, ProfileTable
from .storage import (
    JsonFileBackend,
    MemoryBackend,
    SqliteBackend,
    StorageBackend,
    make_backend,
)
from .tiers import TIER_NAMES, TrustTier, tier_for_score

__all__ = [
    "ClientProfile",
    "JsonFileBackend",
    "MemoryBackend",
    "PROFILE_NAMESPACE",
    "ProfileTable",
    "SqliteBackend",
    "StorageBackend",
    "TIER_NAMES",
    "TrustConfig",
    "TrustManager",
    "TrustTier",
    "bot_count_log_prior",
    "make_backend",
    "tier_for_score",
]
