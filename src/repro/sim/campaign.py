"""Attack campaigns: repeated waves over a long operating horizon.

The paper argues the defense is *reactive*: "triggered only when an attack
is detected, incurring minimum maintenance costs under normal conditions"
(Section II-A), scaling up for mitigation and back down afterwards
(Section VII).  Single-scenario runs cannot show that; this module
simulates an operating day — alternating quiet periods and attack waves of
varying botnet sizes — and accounts for both outcomes (benign clients
saved per wave) and resources (replica-hours consumed, vs. what an
always-on provisioned defense would burn).

The model works at the same counts level as
:mod:`repro.sim.shuffle_sim`: each wave is one multi-round shuffle run;
between waves the defense holds only its baseline replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.shuffler import ShuffleEngine
from ..obs.instruments import Instruments, resolve_instruments
from .stats import SampleSummary, summarize

__all__ = ["AttackWave", "CampaignConfig", "WaveOutcome", "CampaignResult",
           "run_campaign"]


@dataclass(frozen=True)
class AttackWave:
    """One attack in the campaign timeline."""

    start_hour: float
    bots: int
    benign: int
    target_fraction: float = 0.8


@dataclass(frozen=True)
class CampaignConfig:
    """A full operating-horizon scenario.

    Attributes:
        waves: the attack timeline (sorted by ``start_hour``).
        horizon_hours: total span accounted for.
        baseline_replicas: replicas kept alive when idle (the paper's
            "small number of static servers").
        shuffle_replicas: pool size ``P`` during mitigation.
        shuffle_seconds: wall-clock cost of one shuffle (boot + migrate;
            Figure 12 scale).
    """

    waves: Sequence[AttackWave]
    horizon_hours: float = 24.0
    baseline_replicas: int = 4
    shuffle_replicas: int = 1_000
    shuffle_seconds: float = 30.0

    def __post_init__(self) -> None:
        hours = [wave.start_hour for wave in self.waves]
        if list(hours) != sorted(hours):
            raise ValueError("waves must be sorted by start_hour")
        if hours and hours[-1] > self.horizon_hours:
            raise ValueError("wave starts beyond the horizon")


@dataclass(frozen=True)
class WaveOutcome:
    """Result of mitigating one wave."""

    wave: AttackWave
    shuffles: int
    saved_fraction: float
    mitigation_hours: float


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of the whole campaign."""

    outcomes: tuple[WaveOutcome, ...]
    replica_hours_reactive: float
    replica_hours_always_on: float

    @property
    def total_shuffles(self) -> int:
        return sum(outcome.shuffles for outcome in self.outcomes)

    @property
    def reactive_saving(self) -> float:
        """Fraction of the always-on replica-hours the reactive defense
        avoids — the paper's "minimum maintenance costs" claim."""
        if self.replica_hours_always_on == 0:
            return 0.0
        return 1.0 - (
            self.replica_hours_reactive / self.replica_hours_always_on
        )

    def summarize_saved(self, confidence: float = 0.95) -> SampleSummary:
        return summarize(
            [outcome.saved_fraction for outcome in self.outcomes],
            confidence=confidence,
        )


def run_campaign(
    config: CampaignConfig,
    seed: int | np.random.SeedSequence = 0,
    planner: str = "greedy",
    estimator: str = "oracle",
    *,
    instruments: Instruments | None = None,
) -> CampaignResult:
    """Simulate every wave and account for replica-hours.

    The reactive defense pays ``baseline`` replicas for the whole horizon
    plus ``2 * shuffle_replicas`` (pool + in-flight replacements) during
    each mitigation window; the always-on comparison keeps the full
    mitigation fleet up around the clock.  ``seed`` may be a ready-made
    :class:`~numpy.random.SeedSequence` (e.g. a spawned child).
    """
    rng_seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    obs = resolve_instruments(instruments)
    outcomes = []
    mitigation_hours_total = 0.0
    for wave, child in zip(config.waves, rng_seq.spawn(len(config.waves))):
        engine = ShuffleEngine(
            n_replicas=config.shuffle_replicas,
            planner=planner,
            estimator=estimator,
            rng=np.random.default_rng(child),
        )
        state = engine.run(
            benign=wave.benign,
            bots=wave.bots,
            target_fraction=wave.target_fraction,
            max_rounds=5_000,
        )
        mitigation_hours = (
            len(state.rounds) * config.shuffle_seconds / 3600.0
        )
        mitigation_hours_total += mitigation_hours
        if obs is not None:
            obs.registry.counter(
                "sim_campaign_waves_total",
                "Attack waves simulated across campaigns.",
            ).inc()
            obs.registry.histogram(
                "sim_campaign_wave_shuffles",
                "Shuffle rounds needed to absorb one attack wave.",
                buckets=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
            ).observe(float(len(state.rounds)))
        outcomes.append(
            WaveOutcome(
                wave=wave,
                shuffles=len(state.rounds),
                saved_fraction=state.saved_fraction,
                mitigation_hours=mitigation_hours,
            )
        )
    reactive = (
        config.baseline_replicas * config.horizon_hours
        + 2 * config.shuffle_replicas * mitigation_hours_total
    )
    always_on = (
        config.baseline_replicas + 2 * config.shuffle_replicas
    ) * config.horizon_hours
    return CampaignResult(
        outcomes=tuple(outcomes),
        replica_hours_reactive=reactive,
        replica_hours_always_on=always_on,
    )
