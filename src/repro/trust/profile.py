"""Per-client profiles: rate EMA/variance, violations, trust score.

One plain ``__slots__`` row per client in a dict, updated one request
at a time — the only shape the replicas ingest.  numpy appears twice:
the seeded jitter draw, and ``np.expm1`` in the update — persisted
rows and the golden schedule in ``tests/trust/test_profile.py`` are
pinned to its bits, and ``math.expm1`` differs from it in the last bit
on ~1.7 % of inputs.

Update math, applied per observation at injected time ``now``
(``dt`` = time since the client's previous observation):

- **rate**: instantaneous rate ``1 / max(dt, RATE_FLOOR)`` folded into
  an exponentially-weighted mean/variance with time-decay weight
  ``alpha = 1 - exp(-dt / RATE_TAU)`` — irregular observation spacing
  handled exactly, no fixed tick required.
- **healing**: trust relaxes toward 1 with the same exponential form,
  ``s += (1 - exp(-dt / heal_tau_i)) * (1 - s)``, where
  ``heal_tau_i`` carries the client's seeded jitter.
- **penalty**: a violation is *counted* only when the client's own
  rate EMA exceeds ``violation_rate`` (bystanders on a flooded replica
  keep their score) and at most once per ``penalty_cooldown`` seconds;
  each counted violation multiplies trust by
  ``1 - violation_penalty``.
- **tier**: demotion to the score's bare-floor tier is immediate;
  promotion climbs one rung per update, requires
  ``score >= floor + hysteresis`` and ``promotion_dwell`` seconds at
  the current tier.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .config import INITIAL_TRUST, RATE_FLOOR, RATE_TAU, TrustConfig
from .tiers import TIERS_BY_VALUE, TrustTier, tier_for_score

__all__ = ["ClientProfile", "ProfileTable"]

#: persisted row schema (field name -> python type) in ``to_row``
#: order; ``tier`` stores the :class:`TrustTier` integer value.
_FIELDS: tuple[tuple[str, type], ...] = (
    ("trust", float),
    ("rate_ema", float),
    ("rate_var", float),
    ("last_seen", float),
    ("last_penalty", float),
    ("tier_since", float),
    ("heal_tau", float),
    ("violations", int),
    ("requests", int),
    ("tier", int),
)


class _Row:
    """One client's mutable state, a plain value per field."""

    __slots__ = tuple(name for name, _ in _FIELDS)


def _client_jitter_u(client_id: str, seed: int) -> float:
    """Deterministic uniform draw in [-1, 1] for one client.

    The stream is keyed by ``(seed, blake2b(client_id))`` — a proper
    :class:`numpy.random.SeedSequence` spawn, so the draw is
    reproducible across processes and ``PYTHONHASHSEED`` values and
    independent of client arrival order.
    """
    digest = int.from_bytes(
        hashlib.blake2b(
            client_id.encode("utf-8"), digest_size=8
        ).digest(),
        "little",
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, digest]))
    return float(rng.uniform(-1.0, 1.0))


@dataclass(frozen=True)
class ClientProfile:
    """Read-only view of one client's row (JSON-ready via ``to_dict``)."""

    client_id: str
    trust: float
    rate_ema: float
    rate_var: float
    violations: int
    requests: int
    tier: TrustTier
    last_seen: float

    def to_dict(self) -> dict[str, object]:
        return {
            "client_id": self.client_id,
            "trust": self.trust,
            "rate_ema": self.rate_ema,
            "rate_var": self.rate_var,
            "violations": self.violations,
            "requests": self.requests,
            "tier": self.tier.name,
            "last_seen": self.last_seen,
        }


class ProfileTable:
    """All client profiles: one row per client, in admission order."""

    def __init__(self, config: TrustConfig) -> None:
        self.config = config
        self._rows: dict[str, _Row] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._rows

    @property
    def client_ids(self) -> list[str]:
        """Known clients in admission order."""
        return list(self._rows)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def ensure(self, client_id: str, now: float) -> _Row:
        """A client's row, creating a fresh profile on first sight
        (initial trust, jittered heal time constant)."""
        row = self._rows.get(client_id)
        if row is not None:
            return row
        cfg = self.config
        jitter = 1.0 + cfg.heal_jitter * _client_jitter_u(
            client_id, cfg.seed
        )
        row = self._rows[client_id] = _Row()
        row.trust = INITIAL_TRUST
        row.rate_ema = 0.0
        row.rate_var = 0.0
        row.last_seen = now
        row.last_penalty = -math.inf  # never penalised
        row.tier_since = now
        row.heal_tau = cfg.heal_tau * jitter
        row.violations = 0
        row.requests = 0
        row.tier = int(tier_for_score(INITIAL_TRUST, cfg))
        return row

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def observe(
        self, client_id: str, now: float, violation: bool = False
    ) -> TrustTier:
        """Fold one request into a client's profile; returns the
        (possibly changed) tier."""
        value, _ = self.observe_raw(client_id, now, violation)
        return TIERS_BY_VALUE[value]

    def observe_raw(
        self, client_id: str, now: float, violation: bool = False
    ) -> tuple[int, bool]:
        """:meth:`observe` for the per-request path: returns ``(tier
        value, moved)`` as plain values, where ``moved`` is true on a
        client's first sight and on every ladder move."""
        row = self._rows.get(client_id)
        fresh = row is None
        if row is None:
            row = self.ensure(client_id, now)
        cfg = self.config
        dt = max(now - row.last_seen, 0.0)

        # Rate EMA/variance with time-decay weighting.
        inst = 1.0 / max(dt, RATE_FLOOR)
        alpha = -float(np.expm1(-dt / RATE_TAU))
        delta = inst - row.rate_ema
        rate_ema = row.rate_ema + alpha * delta
        row.rate_ema = rate_ema
        row.rate_var = (1.0 - alpha) * (
            row.rate_var + alpha * delta * delta
        )

        # Healing toward full trust, then the (gated) penalty.
        heal = -float(np.expm1(-dt / row.heal_tau))
        trust = row.trust + heal * (1.0 - row.trust)
        if (
            violation
            and rate_ema > cfg.violation_rate
            and now - row.last_penalty >= cfg.penalty_cooldown
        ):
            trust = trust * (1.0 - cfg.violation_penalty)
            row.last_penalty = now
        score = min(max(trust, 0.0), 1.0)
        row.trust = score
        if violation:
            row.violations += 1
        row.requests += 1
        row.last_seen = now

        # Tier ladder: immediate demotion, graduated gated promotion.
        current = row.tier
        base = int(tier_for_score(score, cfg))
        new = current
        if base < current:
            new = base
        elif now - row.tier_since >= cfg.promotion_dwell:
            promotable = int(
                tier_for_score(score - cfg.hysteresis, cfg)
            )
            if promotable > current:
                new = min(promotable, current + 1)
        if new != current:
            row.tier = new
            row.tier_since = now
        return new, fresh or new != current

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def trust_of(self, client_id: str) -> float | None:
        row = self._rows.get(client_id)
        return None if row is None else row.trust

    def tier_of(self, client_id: str) -> TrustTier | None:
        row = self._rows.get(client_id)
        return None if row is None else TIERS_BY_VALUE[row.tier]

    def requests_of(self, client_id: str) -> int:
        row = self._rows.get(client_id)
        return 0 if row is None else row.requests

    def gate_state(self, client_id: str) -> tuple[int, int] | None:
        """``(tier value, requests)`` from one index lookup — all the
        admission gate reads per request; None for an unknown client."""
        row = self._rows.get(client_id)
        return None if row is None else (row.tier, row.requests)

    def profile(self, client_id: str) -> ClientProfile | None:
        row = self._rows.get(client_id)
        if row is None:
            return None
        return ClientProfile(
            client_id=client_id,
            trust=row.trust,
            rate_ema=row.rate_ema,
            rate_var=row.rate_var,
            violations=row.violations,
            requests=row.requests,
            tier=TIERS_BY_VALUE[row.tier],
            last_seen=row.last_seen,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_row(self, client_id: str) -> dict[str, object]:
        """JSON-ready persistence row (full state, not the view)."""
        row = self._rows[client_id]
        out: dict[str, object] = {
            name: getattr(row, name) for name, _ in _FIELDS
        }
        if not math.isfinite(row.last_penalty):
            out["last_penalty"] = None  # -inf sentinel: never penalised
        return out

    def load_row(self, client_id: str, data: dict) -> None:
        """Restore one persisted row, overwriting any fresh defaults."""
        row = self.ensure(client_id, float(data.get("last_seen", 0.0)))
        for name, cast in _FIELDS:
            if name not in data:
                continue
            value = data[name]
            if name == "last_penalty" and value is None:
                value = -math.inf
            setattr(row, name, cast(value))
