"""Trust-derived log-prior over the bot count.

Its one consumer, the live posterior, is tested in
``tests/core/test_policy.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trust import TrustConfig, TrustManager, bot_count_log_prior


class TestShape:
    def test_length_and_peak(self):
        prior = bot_count_log_prior(upper=50, expected=20.0)
        assert prior.shape == (51,)
        assert prior[20] == 0.0  # peak at the expectation
        assert np.argmax(prior) == 20
        assert np.all(prior <= 0.0)

    def test_relative_scale(self):
        """Being 5 bots off costs the same *relative* amount at any
        expectation: the Laplace scale is the expectation itself."""
        near = bot_count_log_prior(upper=100, expected=10.0)
        far = bot_count_log_prior(upper=1000, expected=100.0)
        assert near[15] == pytest.approx(far[150])

    def test_strength_zero_is_flat(self):
        prior = bot_count_log_prior(upper=10, expected=4.0, strength=0.0)
        assert np.all(prior == 0.0)

    def test_expectation_clipped_into_range(self):
        low = bot_count_log_prior(upper=10, expected=-5.0)
        assert np.argmax(low) == 0
        high = bot_count_log_prior(upper=10, expected=99.0)
        assert np.argmax(high) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            bot_count_log_prior(upper=-1, expected=0.0)
        with pytest.raises(ValueError):
            bot_count_log_prior(upper=5, expected=1.0, strength=-0.1)


def test_low_trust_mass_feeds_a_sane_expectation():
    """End-to-end shape of the bridge: a mixed population's low-trust
    mass lands between the bot count and the population size, and the
    prior peaks there."""
    config = TrustConfig(
        violation_rate=0.0, penalty_cooldown=0.0,
        violation_penalty=0.9, heal_tau=1e9, seed=3,
    )
    manager = TrustManager(config)
    bots = [f"bot{i}" for i in range(10)]
    benign = [f"user{i}" for i in range(90)]
    for cid in bots + benign:
        manager.observe(cid, now=0.0)
    for cid in bots:
        manager.observe(cid, now=0.5, violation=True)
    mass = manager.low_trust_mass(bots + benign)
    # 10 near-zero-trust bots contribute ~1 each; 90 benign at ~0.6
    # contribute 0.4 each.
    assert 40.0 < mass < 60.0
    prior = bot_count_log_prior(upper=100, expected=mass)
    assert np.argmax(prior) == round(mass)
