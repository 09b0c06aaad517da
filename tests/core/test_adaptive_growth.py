"""Tests for the Theorem 1 adaptive replica-growth policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.shuffler import ShuffleEngine


def make_engine(**kwargs):
    defaults = dict(
        n_replicas=4,
        planner="greedy",
        rng=np.random.default_rng(5),
    )
    defaults.update(kwargs)
    return ShuffleEngine(**defaults)


class TestConfiguration:
    def test_max_replicas_validated(self):
        with pytest.raises(ValueError):
            make_engine(n_replicas=10, max_replicas=5)

    def test_disabled_by_default(self):
        engine = make_engine()
        assert not engine.adaptive_growth


class TestGrowthBehaviour:
    def test_pool_grows_under_saturation(self):
        # 4 replicas vs 100 bots: every replica is attacked every round.
        engine = make_engine(adaptive_growth=True)
        engine.run(benign=200, bots=100, target_fraction=0.5,
                   max_rounds=20)
        assert engine.n_replicas > 4

    def test_fixed_pool_stalls_where_adaptive_recovers(self):
        benign, bots = 300, 150
        fixed = make_engine(rng=np.random.default_rng(9))
        fixed_state = fixed.run(benign=benign, bots=bots,
                                target_fraction=0.6, max_rounds=40)

        adaptive = make_engine(
            adaptive_growth=True, rng=np.random.default_rng(9)
        )
        adaptive_state = adaptive.run(benign=benign, bots=bots,
                                      target_fraction=0.6, max_rounds=40)
        # With P=4 and 150 bots, the fixed pool saves essentially nobody;
        # Theorem 1 growth escapes the saturated regime.
        assert adaptive_state.saved_fraction > fixed_state.saved_fraction
        assert adaptive_state.saved_fraction >= 0.6

    def test_growth_respects_cap(self):
        engine = make_engine(adaptive_growth=True, max_replicas=16)
        engine.run(benign=200, bots=100, target_fraction=0.9,
                   max_rounds=30)
        assert engine.n_replicas <= 16

    def test_no_growth_without_saturation(self):
        engine = make_engine(n_replicas=64, adaptive_growth=True)
        engine.run(benign=100, bots=2, target_fraction=0.9, max_rounds=30)
        assert engine.n_replicas == 64

    def test_growth_matches_theorem1_direction(self):
        """After growth, the expected bot-free replica count recovers."""
        from repro.analysis.theory import expected_unattacked_replicas

        bots = 100
        before = expected_unattacked_replicas(4, bots)
        assert before < 1.0  # saturated per Theorem 1
        engine = make_engine(adaptive_growth=True)
        engine.run(benign=400, bots=bots, target_fraction=0.8,
                   max_rounds=60)
        after = expected_unattacked_replicas(engine.n_replicas, bots)
        assert after > before
