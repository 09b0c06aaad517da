"""The trust manager: profiles + ladder + persistence + counters.

One :class:`TrustManager` serves a whole deployment (live pool or
simulated cloud).  It is clock-agnostic — every entry point takes an
explicit ``now`` (wall-clock in the service, sim-time in cloudsim) —
and enforcement-agnostic: backends ask :meth:`admit_decision` and map
the answer onto their own wire verdicts.

Hot-path discipline: the admission decision and the per-request
observation are one dict lookup each plus plain-float work on the
client's row (no enum construction); the transition counter is bound
once at construction, so instrumented request handling never touches
the metric registry.
"""

from __future__ import annotations

from ..obs.instruments import DISABLED, Instruments
from .config import INITIAL_TRUST, TrustConfig
from .profile import ClientProfile, ProfileTable
from .storage import StorageBackend
from .tiers import (
    TIER_NAMES,
    TIERS_BY_VALUE,
    TrustTier,
    tier_for_score,
)

__all__ = ["TrustManager", "PROFILE_NAMESPACE"]

#: storage namespace that profile rows persist under.
PROFILE_NAMESPACE = "profiles"


class TrustManager:
    """Per-client trust state machine with optional persistence.

    Args:
        config: trust tunables (see :class:`TrustConfig`).
        storage: optional :class:`StorageBackend`; when given,
            :meth:`persist` writes rows touched since the last call
            and :meth:`restore` reloads them on restart.
        instruments: optional :class:`repro.obs.Instruments` (``None``
            is :data:`repro.obs.DISABLED`); tier transitions land in
            ``trust_tier_transitions_total``.
    """

    def __init__(
        self,
        config: TrustConfig | None = None,
        storage: StorageBackend | None = None,
        instruments: Instruments | None = None,
    ) -> None:
        self.config = config or TrustConfig()
        self.storage = storage
        self.instruments = instruments or DISABLED
        self.table = ProfileTable(self.config)
        self._dirty: set[str] = set()
        self._transitions = self.instruments.registry.counter(
            "trust_tier_transitions_total",
            "Tier-ladder transitions by destination tier.",
            ("tier",),
        )

    # ------------------------------------------------------------------
    # enforcement
    # ------------------------------------------------------------------
    def admit_decision(self, client_id: str) -> str:
        """``"ok"`` | ``"throttle"`` | ``"deny"`` for one request.

        Unknown clients pass (their profile starts at the first
        observation).  THROTTLED-tier clients pass one request in
        :attr:`TrustConfig.throttle_every` — deterministic in the
        client's own request count, no randomness.
        """
        state = self.table.gate_state(client_id)
        if state is None:
            return "ok"
        tier, requests = state
        if tier >= TrustTier.WATCH:
            return "ok"
        if tier == TrustTier.DENIED:
            return "deny"
        if requests % self.config.throttle_every == 0:
            return "ok"
        return "throttle"

    def observe(
        self, client_id: str, now: float, violation: bool = False
    ) -> TrustTier:
        """Fold one request outcome into the client's profile."""
        value, moved = self.table.observe_raw(client_id, now, violation)
        self._dirty.add(client_id)
        tier = TIERS_BY_VALUE[value]
        if moved:
            self._transitions.inc(tier=tier.name)
        return tier

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def tier(self, client_id: str) -> TrustTier | None:
        return self.table.tier_of(client_id)

    def profile(self, client_id: str) -> ClientProfile | None:
        return self.table.profile(client_id)

    def __len__(self) -> int:
        return len(self.table)

    def low_trust_mass(self, client_ids: list[str]) -> float:
        """Expected bot count among ``client_ids`` under the trust
        model: each client contributes ``1 - trust`` (unknown clients
        contribute ``1 - INITIAL_TRUST``).  Feeds the live posterior's
        prior (:func:`repro.trust.prior.bot_count_log_prior`)."""
        mass = 0.0
        for client_id in client_ids:
            trust = self.table.trust_of(client_id)
            mass += 1.0 - (INITIAL_TRUST if trust is None else trust)
        return mass

    def tier_counts(
        self, client_ids: list[str] | None = None
    ) -> dict[str, int]:
        """Clients per tier name (whole table, or a subset — e.g. one
        replica's whitelist).  Unknown clients count as WATCH-alike
        under their initial score's tier."""
        counts = dict.fromkeys(TIER_NAMES, 0)
        initial_tier = tier_for_score(INITIAL_TRUST, self.config)
        ids = (
            self.table.client_ids if client_ids is None else client_ids
        )
        for client_id in ids:
            tier = self.table.tier_of(client_id)
            counts[(initial_tier if tier is None else tier).name] += 1
        return counts

    def mean_trust(self, client_ids: list[str] | None = None) -> float:
        ids = (
            self.table.client_ids if client_ids is None else client_ids
        )
        if not ids:
            return 1.0
        total = 0.0
        for client_id in ids:
            trust = self.table.trust_of(client_id)
            total += INITIAL_TRUST if trust is None else trust
        return total / len(ids)

    def snapshot(self) -> dict[str, object]:
        """JSON-ready summary for telemetry dumps."""
        return {
            "population": len(self.table),
            "tiers": self.tier_counts(),
            "mean_trust": round(self.mean_trust(), 6),
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True when rows changed since the last :meth:`persist`."""
        return bool(self._dirty)

    def persist(self) -> int:
        """Write rows touched since the last call; returns the count."""
        if self.storage is None or not self._dirty:
            return 0
        batch = [
            (client_id, self.table.to_row(client_id))
            for client_id in sorted(self._dirty)
        ]
        self.storage.put_many(PROFILE_NAMESPACE, batch)
        self._dirty.clear()
        return len(batch)

    def restore(self) -> int:
        """Reload every persisted profile; returns the count."""
        if self.storage is None:
            return 0
        rows = self.storage.items(PROFILE_NAMESPACE)
        for client_id, data in rows:
            self.table.load_row(client_id, data)
        return len(rows)
