"""Trust-derived log-prior and its estimator integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import EstimateRequest, estimate
from repro.trust import TrustConfig, TrustManager, bot_count_log_prior


def estimate_mle(**fields):
    return estimate(EstimateRequest(method="mle", **fields))


def estimate_weighted(**fields):
    return estimate(EstimateRequest(method="weighted", **fields))


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


class TestEstimatorIntegration:
    def test_none_prior_is_bit_identical_to_baseline(self):
        """log_prior=None must leave the historical pure-MLE path
        untouched — the trust-disabled service depends on it."""
        for n_attacked in (1, 3, 6):
            base = estimate_mle(
                n_attacked=n_attacked, n_replicas=10, upper_bound=120
            )
            with_none = estimate_mle(
                n_attacked=n_attacked, n_replicas=10, upper_bound=120,
                log_prior=None,
            )
            assert with_none == base

    def test_flat_prior_does_not_move_the_mle(self):
        flat = np.zeros(121)
        base = estimate_mle(
            n_attacked=4, n_replicas=10, upper_bound=120
        )
        shaped = estimate_mle(
            n_attacked=4, n_replicas=10, upper_bound=120, log_prior=flat
        )
        assert shaped.m_hat == base.m_hat

    def test_strong_prior_pulls_map_toward_expectation(self):
        base = estimate_mle(
            n_attacked=4, n_replicas=10, upper_bound=120
        )
        expected = float(base.m_hat + 30)
        prior = bot_count_log_prior(
            upper=120, expected=expected, strength=40.0
        )
        pulled = estimate_mle(
            n_attacked=4, n_replicas=10, upper_bound=120, log_prior=prior
        )
        assert base.m_hat < pulled.m_hat <= expected + 1

    def test_weighted_estimator_accepts_prior(self):
        sizes = [22, 20, 19, 21, 20, 18, 20, 20, 20, 20]
        base = estimate_weighted(
            n_attacked=3, sizes=sizes, n_clients=200
        )
        prior = bot_count_log_prior(
            upper=200, expected=float(base.m_hat + 40), strength=30.0
        )
        pulled = estimate_weighted(
            n_attacked=3, sizes=sizes, n_clients=200, log_prior=prior
        )
        assert pulled.m_hat >= base.m_hat

    def test_degenerate_all_attacked_ignores_prior(self):
        prior = bot_count_log_prior(upper=40, expected=2.0, strength=50.0)
        estimate = estimate_mle(
            n_attacked=8, n_replicas=8, upper_bound=40, log_prior=prior
        )
        assert estimate.degenerate
        assert estimate.m_hat == 40  # Theorem 1 collapse, prior unused


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
