"""Per-client profiles: rate EMA/variance, violations, trust score.

Struct-of-arrays storage (one numpy column per field, clients as rows)
so the batch update is one vectorized kernel.  The per-request update
is the *same arithmetic* — the same IEEE operations in the same order
— written as plain float code on one row, because one request through
the ~40-ufunc kernel costs ~70 µs of numpy dispatch and the guard runs
on every request.  The two paths are pinned bit-for-bit by a seeded
randomized schedule in ``tests/trust/test_profile.py``.  The one numpy
call left in the scalar path is ``np.expm1``: ``math.expm1`` differs
from it in the last bit on ~1.7 % of inputs, which would let the
``rate_ema`` column drift between the paths.

Update math, applied per observation batch at injected time ``now``
(``dt`` = time since the client's previous observation):

- **rate**: instantaneous rate ``k / max(dt, rate_floor)`` folded into
  an exponentially-weighted mean/variance with time-decay weight
  ``alpha = 1 - exp(-dt / rate_tau)`` — irregular observation spacing
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
from dataclasses import dataclass

import numpy as np

from .config import TrustConfig
from .tiers import TIERS_BY_VALUE, TrustTier, tier_for_score

__all__ = ["ClientProfile", "ProfileTable"]

#: persisted row schema (column name -> numpy dtype); ``tier`` stores
#: the :class:`TrustTier` integer value.
_COLUMNS: tuple[tuple[str, type], ...] = (
    ("trust", np.float64),
    ("rate_ema", np.float64),
    ("rate_var", np.float64),
    ("last_seen", np.float64),
    ("last_penalty", np.float64),
    ("tier_since", np.float64),
    ("heal_tau", np.float64),
    ("violations", np.int64),
    ("requests", np.int64),
    ("tier", np.int64),
)


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
    """All client profiles, columns as growable numpy arrays."""

    def __init__(self, config: TrustConfig) -> None:
        self.config = config
        self._index: dict[str, int] = {}
        self._ids: list[str] = []
        capacity = 64
        self._cols: dict[str, np.ndarray] = {
            name: np.zeros(capacity, dtype=dtype)
            for name, dtype in _COLUMNS
        }

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._index

    @property
    def client_ids(self) -> list[str]:
        """Known clients in admission order."""
        return list(self._ids)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        capacity = self._cols["trust"].shape[0]
        if needed <= capacity:
            return
        new = max(needed, capacity * 2)
        for name, dtype in _COLUMNS:
            grown = np.zeros(new, dtype=dtype)
            grown[:capacity] = self._cols[name]
            self._cols[name] = grown

    def ensure(self, client_id: str, now: float) -> int:
        """Row index for a client, creating a fresh profile on first
        sight (initial trust, jittered heal time constant)."""
        row = self._index.get(client_id)
        if row is not None:
            return row
        row = len(self._ids)
        self._grow(row + 1)
        self._index[client_id] = row
        self._ids.append(client_id)
        cfg = self.config
        jitter = 1.0 + cfg.heal_jitter * _client_jitter_u(
            client_id, cfg.seed
        )
        cols = self._cols
        cols["trust"][row] = cfg.initial_trust
        cols["rate_ema"][row] = 0.0
        cols["rate_var"][row] = 0.0
        cols["last_seen"][row] = now
        cols["last_penalty"][row] = -np.inf
        cols["tier_since"][row] = now
        cols["heal_tau"][row] = cfg.heal_tau * jitter
        cols["violations"][row] = 0
        cols["requests"][row] = 0
        cols["tier"][row] = int(
            tier_for_score(cfg.initial_trust, cfg)
        )
        return row

    # ------------------------------------------------------------------
    # updates (batch kernel + the same arithmetic on one row)
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
        client's first sight and on every ladder move.

        Mirrors :meth:`_update` with ``k = 1`` operation for operation
        (the comments there apply); any edit must land in both and keep
        the bitwise equivalence test green.
        """
        row = self._index.get(client_id)
        fresh = row is None
        if fresh:
            row = self.ensure(client_id, now)
        cfg = self.config
        cols = self._cols
        dt = max(now - cols["last_seen"].item(row), 0.0)

        inst = 1.0 / max(dt, cfg.rate_floor)
        alpha = -float(np.expm1(-dt / cfg.rate_tau))
        rate_ema = cols["rate_ema"].item(row)
        delta = inst - rate_ema
        rate_ema = rate_ema + alpha * delta
        cols["rate_ema"][row] = rate_ema
        cols["rate_var"][row] = (1.0 - alpha) * (
            cols["rate_var"].item(row) + alpha * delta * delta
        )

        trust = cols["trust"].item(row)
        heal = -float(np.expm1(-dt / cols["heal_tau"].item(row)))
        trust = trust + heal * (1.0 - trust)
        if (
            violation
            and rate_ema > cfg.violation_rate
            and now - cols["last_penalty"].item(row)
            >= cfg.penalty_cooldown
        ):
            trust = trust * (1.0 - cfg.violation_penalty)
            cols["last_penalty"][row] = now
        score = min(max(trust, 0.0), 1.0)
        cols["trust"][row] = score
        if violation:
            cols["violations"][row] += 1
        cols["requests"][row] += 1
        cols["last_seen"][row] = now

        current = cols["tier"].item(row)
        base = int(tier_for_score(score, cfg))
        new = current
        if base < current:
            new = base
        elif now - cols["tier_since"].item(row) >= cfg.promotion_dwell:
            promotable = int(
                tier_for_score(score - cfg.hysteresis, cfg)
            )
            if promotable > current:
                new = min(promotable, current + 1)
        if new != current:
            cols["tier"][row] = new
            cols["tier_since"][row] = now
        return new, fresh or new != current

    def observe_batch(
        self,
        now: float,
        client_ids: list[str],
        violations: list[bool] | np.ndarray,
    ) -> np.ndarray:
        """Fold a batch of requests (one entry per request; repeated
        clients are aggregated).  Returns the destination tier value
        of every client that moved — first sight or a ladder move, the
        same events :meth:`observe_raw` flags — in row order."""
        known = len(self._ids)
        counts: dict[int, list[float]] = {}
        for client_id, violated in zip(client_ids, violations):
            row = self.ensure(client_id, now)
            entry = counts.setdefault(row, [0.0, 0.0])
            entry[0] += 1.0
            if violated:
                entry[1] += 1.0
        rows = np.array(sorted(counts), dtype=np.intp)
        if not rows.size:
            return np.zeros(0, dtype=np.int64)
        k = np.array([counts[r][0] for r in rows], dtype=np.float64)
        v = np.array([counts[r][1] for r in rows], dtype=np.float64)
        moved = self._update(rows, k, v, now) | (rows >= known)
        return self._cols["tier"][rows[moved]]

    def _update(
        self,
        rows: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """The vectorized update; returns which ``rows`` changed tier."""
        cfg = self.config
        cols = self._cols
        dt = np.maximum(now - cols["last_seen"][rows], 0.0)

        # Rate EMA/variance with time-decay weighting.
        inst = k / np.maximum(dt, cfg.rate_floor)
        alpha = -np.expm1(-dt / cfg.rate_tau)
        delta = inst - cols["rate_ema"][rows]
        cols["rate_ema"][rows] += alpha * delta
        cols["rate_var"][rows] = (1.0 - alpha) * (
            cols["rate_var"][rows] + alpha * delta * delta
        )

        # Healing toward full trust, then the (gated) penalty.
        trust = cols["trust"][rows]
        heal = -np.expm1(-dt / cols["heal_tau"][rows])
        trust = trust + heal * (1.0 - trust)
        counted = (
            (v > 0.0)
            & (cols["rate_ema"][rows] > cfg.violation_rate)
            & (now - cols["last_penalty"][rows] >= cfg.penalty_cooldown)
        )
        trust = np.where(
            counted, trust * (1.0 - cfg.violation_penalty), trust
        )
        cols["trust"][rows] = np.clip(trust, 0.0, 1.0)
        cols["last_penalty"][rows] = np.where(
            counted, now, cols["last_penalty"][rows]
        )
        cols["violations"][rows] += v.astype(np.int64)
        cols["requests"][rows] += k.astype(np.int64)
        cols["last_seen"][rows] = now

        # Tier ladder: immediate demotion, graduated gated promotion.
        score = cols["trust"][rows]
        current = cols["tier"][rows]
        base = np.select(
            [
                score >= cfg.trusted_floor,
                score >= cfg.watch_floor,
                score >= cfg.throttled_floor,
            ],
            [
                int(TrustTier.TRUSTED),
                int(TrustTier.WATCH),
                int(TrustTier.THROTTLED),
            ],
            default=int(TrustTier.DENIED),
        )
        margin = score - cfg.hysteresis
        promotable = np.select(
            [
                margin >= cfg.trusted_floor,
                margin >= cfg.watch_floor,
                margin >= cfg.throttled_floor,
            ],
            [
                int(TrustTier.TRUSTED),
                int(TrustTier.WATCH),
                int(TrustTier.THROTTLED),
            ],
            default=int(TrustTier.DENIED),
        )
        dwelled = now - cols["tier_since"][rows] >= cfg.promotion_dwell
        new = np.where(
            base < current,
            base,
            np.where(
                (promotable > current) & dwelled,
                np.minimum(promotable, current + 1),
                current,
            ),
        )
        changed = new != current
        cols["tier"][rows] = new
        cols["tier_since"][rows] = np.where(
            changed, now, cols["tier_since"][rows]
        )
        return changed

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def trust_of(self, client_id: str) -> float | None:
        row = self._index.get(client_id)
        return None if row is None else float(self._cols["trust"][row])

    def tier_of(self, client_id: str) -> TrustTier | None:
        row = self._index.get(client_id)
        return (
            None if row is None else TrustTier(int(self._cols["tier"][row]))
        )

    def requests_of(self, client_id: str) -> int:
        row = self._index.get(client_id)
        return 0 if row is None else int(self._cols["requests"][row])

    def gate_state(self, client_id: str) -> tuple[int, int] | None:
        """``(tier value, requests)`` from one index lookup — all the
        admission gate reads per request; None for an unknown client."""
        row = self._index.get(client_id)
        if row is None:
            return None
        cols = self._cols
        return cols["tier"].item(row), cols["requests"].item(row)

    def profile(self, client_id: str) -> ClientProfile | None:
        row = self._index.get(client_id)
        if row is None:
            return None
        cols = self._cols
        return ClientProfile(
            client_id=client_id,
            trust=float(cols["trust"][row]),
            rate_ema=float(cols["rate_ema"][row]),
            rate_var=float(cols["rate_var"][row]),
            violations=int(cols["violations"][row]),
            requests=int(cols["requests"][row]),
            tier=TrustTier(int(cols["tier"][row])),
            last_seen=float(cols["last_seen"][row]),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_row(self, client_id: str) -> dict[str, object]:
        """JSON-ready persistence row (full state, not the view)."""
        row = self._index[client_id]
        cols = self._cols
        out: dict[str, object] = {}
        for name, dtype in _COLUMNS:
            value = cols[name][row]
            if name == "last_penalty" and not np.isfinite(value):
                out[name] = None  # -inf sentinel: never penalised
            elif dtype is np.float64:
                out[name] = float(value)
            else:
                out[name] = int(value)
        return out

    def load_row(self, client_id: str, data: dict) -> None:
        """Restore one persisted row, overwriting any fresh defaults."""
        row = self.ensure(client_id, float(data.get("last_seen", 0.0)))
        cols = self._cols
        for name, dtype in _COLUMNS:
            if name not in data:
                continue
            value = data[name]
            if name == "last_penalty" and value is None:
                cols[name][row] = -np.inf
            elif dtype is np.float64:
                cols[name][row] = float(value)
            else:
                cols[name][row] = int(value)
