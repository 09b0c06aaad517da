"""Tests for the attack-campaign simulator."""

from __future__ import annotations

import pytest

import numpy as np

from repro.sim.campaign import (
    AttackWave,
    CampaignConfig,
    run_campaign,
)


def small_campaign(**overrides) -> CampaignConfig:
    defaults = dict(
        waves=(
            AttackWave(start_hour=2.0, bots=200, benign=800),
            AttackWave(start_hour=10.0, bots=500, benign=800),
            AttackWave(start_hour=18.0, bots=100, benign=800),
        ),
        horizon_hours=24.0,
        baseline_replicas=4,
        shuffle_replicas=80,
        shuffle_seconds=30.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestConfig:
    def test_unsorted_waves_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            CampaignConfig(
                waves=(
                    AttackWave(start_hour=5.0, bots=10, benign=100),
                    AttackWave(start_hour=1.0, bots=10, benign=100),
                )
            )

    def test_wave_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            CampaignConfig(
                waves=(AttackWave(start_hour=30.0, bots=10, benign=100),),
                horizon_hours=24.0,
            )


class TestRunCampaign:
    def test_every_wave_mitigated(self):
        result = run_campaign(small_campaign(), seed=1)
        assert len(result.outcomes) == 3
        for outcome in result.outcomes:
            assert outcome.saved_fraction >= outcome.wave.target_fraction
            assert outcome.shuffles > 0
            assert outcome.mitigation_hours > 0

    def test_bigger_waves_cost_more_shuffles(self):
        result = run_campaign(small_campaign(), seed=2)
        by_bots = {o.wave.bots: o.shuffles for o in result.outcomes}
        assert by_bots[500] > by_bots[100]

    def test_reactive_saving_is_large(self):
        """The paper's 'minimum maintenance costs' claim: keeping the
        mitigation fleet always-on would cost far more replica-hours."""
        result = run_campaign(small_campaign(), seed=3)
        assert result.reactive_saving > 0.9
        assert (
            result.replica_hours_reactive
            < result.replica_hours_always_on
        )

    def test_deterministic(self):
        first = run_campaign(small_campaign(), seed=4)
        second = run_campaign(small_campaign(), seed=4)
        assert first.total_shuffles == second.total_shuffles

    def test_summarize_saved(self):
        result = run_campaign(small_campaign(), seed=5)
        summary = result.summarize_saved()
        assert summary.n == 3
        assert summary.mean >= 0.8

    def test_empty_campaign(self):
        result = run_campaign(
            CampaignConfig(waves=(), horizon_hours=24.0), seed=6
        )
        assert result.total_shuffles == 0
        assert result.reactive_saving > 0.9  # baseline vs full fleet

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(4)
        from_seq = run_campaign(small_campaign(), seed=seq)
        from_int = run_campaign(small_campaign(), seed=4)
        assert from_seq == from_int
