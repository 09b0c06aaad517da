"""Tunables of the per-client trust model.

One frozen dataclass shared by the live service and the cloud
simulator, mirroring how :class:`repro.service.config.ServiceConfig`
and :class:`repro.cloudsim.system.CloudConfig` parallel each other.
Time constants are in the *caller's* clock units (wall-clock seconds
in the service, sim-seconds in cloudsim): the trust layer never reads
a clock itself, every update takes an explicit ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "INITIAL_TRUST",
    "RATE_FLOOR",
    "RATE_TAU",
    "THROTTLED_FLOOR",
    "TrustConfig",
]

#: Time constant of the request-rate EMA (seconds).
RATE_TAU = 5.0
#: Smallest inter-observation gap used when computing an instantaneous
#: rate (guards the division on bursts).
RATE_FLOOR = 1e-3
#: Score assigned to a never-seen client.
INITIAL_TRUST = 0.6
#: Minimum score for the THROTTLED tier (below it: DENIED).
THROTTLED_FLOOR = 0.12


@dataclass(frozen=True)
class TrustConfig:
    """Parameters of profiles and the tier ladder.

    The fixed parameters (:data:`RATE_TAU`, :data:`RATE_FLOOR`,
    :data:`INITIAL_TRUST`, :data:`THROTTLED_FLOOR`) are module constants.

    Attributes:
        heal_tau: time constant of trust recovery toward 1.0 — a quiet
            client's score heals as ``1 - (1-s)·exp(-dt/heal_tau)``.
        heal_jitter: ± fractional jitter applied to each client's
            ``heal_tau``, drawn once per client from a generator seeded
            by ``(seed, digest(client_id))`` — deterministic and
            ``PYTHONHASHSEED``-independent.  Desynchronises tier
            promotions so a cohort demoted together does not retry in
            lockstep.
        violation_penalty: multiplicative trust hit per counted
            violation: ``s *= (1 - violation_penalty)``.
        violation_rate: request-rate EMA (req/s) a client must exceed
            before its violations are *counted* — a 2 req/s benign
            client throttled on a flooded replica is a bystander, not
            a cause, and keeps its score.
        penalty_cooldown: at most one counted violation per client per
            this many seconds, so the penalty tracks sustained
            misbehaviour rather than raw request volume.
        trusted_floor: minimum score for the TRUSTED tier.
        watch_floor: minimum score for the WATCH tier.
        hysteresis: extra score above a tier's floor required to be
            *promoted* into it (demotion uses the bare floor), so a
            score hovering at a boundary cannot flap.
        promotion_dwell: seconds a client must hold its current tier
            before the next promotion; promotions climb one rung at a
            time (graduated recovery), demotions are immediate.
        throttle_every: in the THROTTLED tier, one request in this
            many passes through to the replica's token bucket; the
            rest get the THROTTLED wire verdict without spending
            bucket tokens.
        seed: base seed for the per-client heal jitter.
    """

    heal_tau: float = 30.0
    heal_jitter: float = 0.1
    violation_penalty: float = 0.25
    violation_rate: float = 20.0
    penalty_cooldown: float = 0.5
    trusted_floor: float = 0.75
    watch_floor: float = 0.45
    hysteresis: float = 0.08
    promotion_dwell: float = 2.0
    throttle_every: int = 2
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.heal_tau <= 0:
            raise ValueError("heal_tau must be > 0")
        if not 0.0 <= self.heal_jitter < 1.0:
            raise ValueError("heal_jitter must be within [0, 1)")
        if not 0.0 < self.violation_penalty < 1.0:
            raise ValueError("violation_penalty must be within (0, 1)")
        if self.violation_rate < 0:
            raise ValueError("violation_rate must be >= 0")
        if self.penalty_cooldown < 0:
            raise ValueError("penalty_cooldown must be >= 0")
        if not (
            0.0
            < THROTTLED_FLOOR
            < self.watch_floor
            < self.trusted_floor
            < 1.0
        ):
            raise ValueError(
                "tier floors must satisfy "
                "0 < throttled < watch < trusted < 1"
            )
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")
        if self.promotion_dwell < 0:
            raise ValueError("promotion_dwell must be >= 0")
        if self.throttle_every < 1:
            raise ValueError("throttle_every must be >= 1")
