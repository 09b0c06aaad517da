"""The control policy, driven without a pool, a clock or a socket.

``TestTheorem1Guess``, ``TestEstimation`` and ``TestTrustPrior`` are the
cases that used to boot a replica pool in ``tests/service`` to reach the
same rules through ``ServiceCoordinator``; the closed loop and the
replay tests are what a pure policy makes possible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloudsim import CloudConfig, CloudDefenseSystem
from repro.core.api import planner
from repro.core.even import even_sizes
from repro.core.plan_cache import PlanCache
from repro.core.policy import (
    LivePolicy,
    Observation,
    ShufflePolicy,
    theorem1_guess,
)
from repro.core.shuffler import ShuffleEngine
from repro.service import ServiceConfig, shuffle_budget
from repro.trust import TrustConfig, TrustManager, TrustTier


def live_policy(**kwargs) -> LivePolicy:
    return LivePolicy(estimator="auto", **kwargs)


class TestTheorem1Guess:
    def test_matches_saturation_threshold_at_paper_scale(self):
        # ceil(log(1/10) / log(9/10)) — the Theorem 1 bound for P=10.
        assert theorem1_guess(10) == 22

    def test_degenerate_pool_sizes(self):
        assert theorem1_guess(1) == 1
        assert theorem1_guess(2) == 1


class TestEstimation:
    """The live chain, one observation at a time (P = 3 replicas)."""

    def test_round_one_uses_occupancy_mle(self):
        policy = live_policy()
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=30))
        assert policy.method == "mle"
        assert 1 <= policy.believed(30) <= 30

    def test_degenerate_first_observation_uses_theorem1(self):
        policy = live_policy()
        policy.believe(Observation(n_attacked=3, n_replicas=3, n_clients=30))
        # X = P says nothing beyond "M exceeds the saturation threshold".
        assert policy.believed(30) == theorem1_guess(3)
        assert policy.method == "mle"

    def test_belief_is_sticky_across_undercounts(self):
        policy = live_policy()
        policy.belief = 5
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=30))
        # A sweep that undercounts (bots mid-reconnect are invisible)
        # must not lower the believed count: M is constant in the model.
        assert policy.believed(30) == 5

    def test_attacked_subset_of_last_plan_uses_weighted(self):
        policy = live_policy()
        plan = planner("greedy")(20, 4, 3)
        policy.believe(
            Observation(
                n_attacked=2,
                n_replicas=3,
                n_clients=20,
                plan_sizes=plan.group_sizes,
            )
        )
        assert policy.method == "weighted"
        assert policy.believed(20) >= 1

    def test_belief_clamped_to_population(self):
        policy = live_policy()
        policy.belief = 50
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=4))
        assert policy.believed(4) == 4  # cannot believe more bots than clients

    def test_memoryless_base_forgets(self):
        policy = ShufflePolicy(estimator="moment")
        policy.belief = 50
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=30))
        assert policy.belief == 1  # the paper's rule: this estimate only

    def test_demonstrated_bots_hold_a_hopeless_quarantine(self):
        policy = live_policy()
        policy.belief = 4  # everyone believed a bot
        seen = Observation(
            n_attacked=1, n_replicas=3, n_clients=4, demonstrated_bots=6
        )
        policy.believe(seen)
        assert policy.decide(4, 3).action == "hold"
        assert policy.belief == 6  # the demonstrated floor is adopted
        policy.believe(seen)
        assert policy.decide(4, 3).action == "quarantine"


class TestTrustPrior:
    def test_trust_prior_disabled_paths_return_none(self):
        seen = Observation(n_attacked=1, n_replicas=3, n_clients=10)
        assert ShufflePolicy._trust_prior(seen, upper=10) is None

        zero = Observation(
            n_attacked=1,
            n_replicas=3,
            n_clients=10,
            expected_bots=2.0,
            prior_strength=0.0,
        )
        assert ShufflePolicy._trust_prior(zero, upper=10) is None

    def test_trust_prior_peaks_at_low_trust_mass(self):
        trust = TrustManager(TrustConfig(seed=7))
        trust.table.ensure("bot", now=0.0)
        trust.table.load_row("bot", {
            "trust": 0.0,
            "tier": int(TrustTier.DENIED),
            "tier_since": 0.0,
            "last_seen": 0.0,
            "requests": 0,
        })
        seen = Observation(
            n_attacked=1,
            n_replicas=3,
            n_clients=10,
            expected_bots=trust.low_trust_mass(["bot"]),
        )
        prior = ShufflePolicy._trust_prior(seen, upper=10)
        assert prior is not None
        assert prior.shape == (11,)
        assert prior[1] == 0.0  # expected bot count = 1 - trust = 1


# ----------------------------------------------------------------------
# The live chain in a closed loop, at counts level
# ----------------------------------------------------------------------
BENIGN, BOTS, REPLICAS = 200, 20, 10

#: seed -> (shuffle rounds, benign clients written off, final belief),
#: captured when the policy was extracted from ``ServiceCoordinator``.
#: 8 of the 30 seeds quarantine 16-23 benign clients (clean < 0.95)
#: with the sticky belief at 37-43 against 20 true bots — the baseline
#: ROADMAP item 2's posterior has to beat (EXPERIMENTS.md).
CLOSED_LOOP_GOLDEN = {
    0: (13, 0, 29), 1: (11, 21, 39), 2: (10, 0, 28), 3: (14, 0, 31),
    4: (15, 19, 41), 5: (11, 0, 30), 6: (15, 19, 43), 7: (17, 0, 33),
    8: (16, 0, 32), 9: (14, 0, 29), 10: (11, 23, 41), 11: (14, 0, 32),
    12: (14, 0, 33), 13: (12, 0, 25), 14: (12, 0, 26), 15: (15, 21, 40),
    16: (14, 0, 37), 17: (12, 0, 28), 18: (12, 0, 29), 19: (15, 0, 33),
    20: (12, 20, 41), 21: (11, 0, 31), 22: (11, 0, 30), 23: (16, 0, 37),
    24: (16, 16, 37), 25: (15, 19, 40), 26: (13, 0, 34), 27: (15, 0, 30),
    28: (14, 0, 27), 29: (12, 0, 30),
}


@pytest.fixture(scope="module")
def live_cache() -> PlanCache:
    config = ServiceConfig()
    cache = PlanCache(
        n_replicas=config.n_replicas,
        client_grid=config.plan_client_grid,
        bot_grid=config.plan_bot_grid,
    )
    cache.precompute()
    return cache


def closed_loop(seed: int, cache: PlanCache) -> tuple[int, int, int, int]:
    """Shuffle until the live chain quarantines; bots land by a seeded
    multivariate hypergeometric draw over each plan's non-empty sizes.
    Returns (rounds, benign written off, final belief, bots cornered)."""
    rng = np.random.default_rng(seed)
    policy = live_policy(planner=cache)
    sizes = np.asarray(even_sizes(BENIGN + BOTS, REPLICAS))
    bots = rng.multivariate_hypergeometric(sizes, BOTS)
    n_active, plan_sizes, rounds = REPLICAS, None, 0
    while True:
        attacked = bots > 0
        n_clients = int(sizes[attacked].sum())
        policy.believe(
            Observation(
                n_attacked=int(attacked.sum()),
                n_replicas=n_active,
                n_clients=n_clients,
                plan_sizes=plan_sizes,
            )
        )
        decision = policy.decide(n_clients, REPLICAS)
        cornered = int(bots.sum())
        if decision.action == "quarantine":
            assert policy.belief is not None
            return rounds, n_clients - cornered, policy.belief, cornered
        assert decision.action == "shuffle"
        rounds += 1
        plan_sizes = decision.plan.group_sizes
        sizes = np.asarray(decision.plan.nonempty_sizes())
        n_active += sizes.size - int(attacked.sum())
        bots = rng.multivariate_hypergeometric(sizes, cornered)


@pytest.mark.parametrize("seed", sorted(CLOSED_LOOP_GOLDEN))
def test_live_chain_quarantines_every_bot_within_budget(seed, live_cache):
    rounds, written_off, belief, cornered = closed_loop(seed, live_cache)
    assert rounds <= shuffle_budget(BENIGN, BOTS, REPLICAS) == 42
    assert cornered == BOTS  # every bot is inside the quarantined subset
    assert (rounds, written_off, belief) == CLOSED_LOOP_GOLDEN[seed]


# ----------------------------------------------------------------------
# Purity: a decision depends on nothing its inputs do not carry
# ----------------------------------------------------------------------
def record_calls(policy: ShufflePolicy) -> list[tuple]:
    """Log every ``believe`` / ``decide`` call on ``policy`` as
    ``(step, arguments, belief at entry, repr of the result)``."""
    calls: list[tuple] = []
    for step in ("believe", "decide"):

        def recorded(*args, _step=step, _inner=getattr(policy, step)):
            entry = policy.belief
            result = _inner(*args)
            calls.append((_step, args, entry, repr(result)))
            return result

        setattr(policy, step, recorded)
    return calls


def assert_replays(calls: list[tuple], fresh: ShufflePolicy) -> None:
    assert calls
    # The only state a driver may plant is the belief before the first
    # step (the engine's round-0 seed); after that it must carry itself.
    fresh.belief = calls[0][2]
    for step, args, belief, result in calls:
        assert fresh.belief == belief
        assert repr(getattr(fresh, step)(*args)) == result


def test_cloudsim_decisions_replay_from_their_observations():
    # The tests/cloudsim/test_replay_digest.py scenario.
    system = CloudDefenseSystem(CloudConfig(), seed=7)
    calls = record_calls(system.ctx.coordinator.policy)
    system.add_benign_clients(600)
    system.add_persistent_bots(30)
    report = system.run(40.0)
    assert len(calls) == 2 * report.shuffles == 4
    assert_replays(calls, ShufflePolicy(planner="greedy", estimator="moment"))


def test_sim_decisions_replay_from_their_observations():
    engine = ShuffleEngine(
        n_replicas=100, estimator="mle", rng=np.random.default_rng(3)
    )
    calls = record_calls(engine.policy)
    state = engine.run(benign=1_500, bots=500, target_fraction=0.8)
    assert len(calls) == 2 * len(state.rounds) > 10
    assert_replays(calls, ShufflePolicy(planner="greedy", estimator="mle"))
