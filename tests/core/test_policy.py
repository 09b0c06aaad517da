"""The control policy, driven without a pool, a clock or a socket.

``TestEstimation`` and ``TestTrustPrior`` are the cases that used to
boot a replica pool in ``tests/service`` to reach the same rules through
``ServiceCoordinator``; the closed loops and the replay tests are what a
pure policy makes possible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudsim import CloudConfig, CloudDefenseSystem
from repro.core import api
from repro.core.even import even_sizes
from repro.core.policy import Observation, PosteriorPolicy, ShufflePolicy
from repro.core.shuffler import ShuffleEngine
from repro.obs import Instruments, set_default_instruments
from repro.service import ServiceCoordinator, shuffle_budget
from repro.trust import TrustConfig, TrustManager, TrustTier


def plant(policy: PosteriorPolicy, weights: list[float]) -> None:
    """Give ``policy`` the posterior ``weights`` over ``m = 0, 1, …``."""
    with np.errstate(divide="ignore"):
        log_post = np.log(np.asarray(weights, dtype=np.float64))
    policy.log_posterior = log_post - np.log(sum(weights))
    policy.belief = int(np.argmax(log_post))


class TestEstimation:
    """The posterior, one observation at a time."""

    def test_round_one_uses_occupancy_mle(self):
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=30))
        assert policy.method == "occupancy"
        assert 1 <= policy.believed(30) <= 30

    def test_degenerate_first_observation_uses_theorem1(self):
        # X = P: the likelihood rises all the way to N.  The -log(m + 1)
        # prior puts the mode at the Theorem 1 bound's order (22 at
        # P = 10) where a flat prior would put it at N = 220, whose plan
        # (9 singletons and one 211-client bucket) saves almost nobody.
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=10, n_replicas=10, n_clients=220))
        assert policy.method == "occupancy"
        assert policy.belief == 36
        decision = policy.decide(220, 10)
        assert decision.action == "shuffle"
        assert decision.plan.group_sizes == (5,) * 9 + (175,)

    def test_attacked_subset_of_last_plan_uses_weighted(self):
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=2, n_replicas=3, n_clients=20))
        plan = policy.decide(20, 3).plan
        policy.believe(
            Observation(
                n_attacked=2,
                n_replicas=3,
                n_clients=12,
                plan_sizes=plan.group_sizes,
            )
        )
        assert policy.method == "weighted"
        assert 2 <= policy.believed(12) <= 12

    def test_attack_outside_the_last_plan_is_carried(self):
        # Nothing but M >= X is computable: the posterior only loses
        # the counts the new support excludes.
        policy = PosteriorPolicy()
        plant(policy, [0.0, 0.1, 0.2, 0.3, 0.4])
        policy.believe(Observation(n_attacked=2, n_replicas=3, n_clients=3))
        assert policy.method == "carried"
        assert np.exp(policy.log_posterior).tolist() == pytest.approx(
            [0.0, 0.0, 0.4, 0.6]
        )
        assert policy.belief == 3

    def test_belief_clamped_to_population(self):
        policy = PosteriorPolicy()
        plant(policy, [float(m) for m in range(51)])  # mode at 50 bots
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=4))
        assert policy.believed(4) == 4  # cannot believe more bots than clients

    def test_cut_that_empties_the_support_starts_fresh(self):
        policy = PosteriorPolicy()
        plant(policy, [0.0, 0.5, 0.5])
        policy.believe(Observation(n_attacked=3, n_replicas=3, n_clients=30))
        assert policy.method == "occupancy"
        assert 3 <= policy.belief <= 30

    def test_memoryless_base_forgets(self):
        policy = ShufflePolicy()
        policy.belief = 50
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=30))
        assert policy.belief == 1  # the paper's rule: this estimate only

    def test_demonstrated_bots_floor_the_support(self):
        # Three of these four clients demonstrably flood: m >= 3, and a
        # plan that saves nobody under that floor quarantines.
        policy = PosteriorPolicy()
        seen = Observation(
            n_attacked=1, n_replicas=3, n_clients=4, demonstrated_bots=3
        )
        policy.believe(seen)
        assert np.isneginf(policy.log_posterior[:3]).all()
        assert policy.belief >= 3
        # More suspects than clients: the floor is capped at N.
        policy.believe(
            Observation(
                n_attacked=1, n_replicas=3, n_clients=4, demonstrated_bots=9
            )
        )
        assert policy.belief == 4
        assert policy.decide(4, 3).action == "quarantine"

    def test_empty_attacked_replicas_believe_no_bot(self):
        # Flooded replicas with no client on them (this file also runs
        # with RuntimeWarnings as errors: no log 0, no 0/0).
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=2, n_replicas=3, n_clients=0))
        assert policy.belief == 0
        assert policy.log_posterior.tolist() == [0.0]
        plant(policy, [0.0, 0.5, 0.5])
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=0))
        assert policy.belief == 0

    def test_attack_count_beyond_the_plan_is_rejected(self):
        # Was IndexError: index 5 is out of bounds, from the likelihood
        # column of a two-replica plan.
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=6))
        bound = r"n_attacked=5 must be within \[0, 2\]"
        with pytest.raises(ValueError, match=bound):
            policy.believe(
                Observation(
                    n_attacked=5, n_replicas=10, n_clients=6, plan_sizes=(3, 3)
                )
            )

    def test_fresh_start_inside_a_plan_reads_the_plan(self):
        # No posterior yet, but the plan the attack came out of is
        # known (the engine's round two): prior times its likelihood.
        policy = PosteriorPolicy()
        policy.believe(
            Observation(
                n_attacked=2, n_replicas=3, n_clients=12, plan_sizes=(2, 2, 8)
            )
        )
        assert policy.method == "weighted"
        assert 2 <= policy.believed(12) <= 12

    def test_core_estimate_span_labels_the_update(self):
        instruments = Instruments.create(source="core")
        policy = PosteriorPolicy(instruments=instruments)
        policy.believe(Observation(n_attacked=1, n_replicas=3, n_clients=30))
        (span,) = [
            s for s in instruments.spans.spans if s.name == "core_estimate"
        ]
        assert span.attrs["method"] == "occupancy"
        assert span.attrs["m_hat"] == policy.belief


class TestDecision:
    """The quarantine rule on a planted posterior, and the plan width the
    live coordinator hands the policy."""

    def test_small_subset_believed_half_bots_goes_singleton(self):
        policy = PosteriorPolicy()
        plant(policy, [0.0, 0.0, 1.0, 0.0, 0.0])
        assert ServiceCoordinator.plan_width(4, 3) == 4
        decision = policy.decide(4, ServiceCoordinator.plan_width(4, 3))
        assert decision.action == "shuffle"
        assert decision.plan.group_sizes == (1, 1, 1, 1)

    def test_quarantine_when_the_posterior_expects_no_save(self):
        policy = PosteriorPolicy()
        plant(policy, [0.0, 0.0, 0.0, 0.0, 1.0])  # everyone a bot
        decision = policy.decide(4, 3)
        assert decision.action == "quarantine"
        assert policy.expected_saved(decision.plan) == 0.0

    def test_expected_saves_average_over_the_posterior(self):
        # 3 of 4 believed bots (the mode), but a quarter of the mass
        # says 2: singletons then save 2 clients, 1 on average.
        policy = PosteriorPolicy()
        plant(policy, [0.0, 0.0, 0.25, 0.75, 0.0])
        decision = policy.decide(4, 4)
        assert decision.believed_bots == 3
        assert policy.expected_saved(decision.plan) == pytest.approx(
            0.25 * 2 + 0.75 * 1
        )

    def test_wide_subset_plans_across_the_pool(self):
        width = ServiceCoordinator.plan_width
        assert (width(41, 10), width(40, 10)) == (10, 40)
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=3, n_replicas=10, n_clients=41))
        assert policy.decide(41, width(41, 10)).plan.n_replicas == 10
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=3, n_replicas=10, n_clients=40))
        assert policy.decide(40, width(40, 10)).plan.n_replicas == 40

    def test_no_client_plans_empty_groups(self):
        # Was "n_replicas=0 must be >= 1": the policy chose the width.
        policy = PosteriorPolicy()
        policy.believe(Observation(n_attacked=2, n_replicas=3, n_clients=0))
        assert policy.decide(0, 10).plan.group_sizes == (0,) * 10
        memoryless = ShufflePolicy()
        memoryless.belief = 0
        assert memoryless.decide(0, 10).plan.group_sizes == (0,) * 10

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_point_mass_plans_the_planner(self, n_clients, n_bots, n_replicas):
        # A posterior that is sure of M plans exactly planner(N, M, P),
        # planted as a log-pmf or as a bare belief (the engine's oracle).
        n_bots = min(n_bots, n_clients)
        want = api.plan(n_clients, n_bots, n_replicas)
        policy = PosteriorPolicy()
        plant(policy, [0.0] * n_bots + [1.0])
        assert policy.decide(n_clients, n_replicas).plan == want
        policy = PosteriorPolicy()
        policy.belief = n_bots
        decision = policy.decide(n_clients, n_replicas)
        assert (decision.believed_bots, decision.plan) == (n_bots, want)


class TestTrustPrior:
    def test_trust_prior_disabled_paths_return_none(self):
        seen = Observation(n_attacked=1, n_replicas=3, n_clients=10)
        assert PosteriorPolicy._trust_prior(seen, upper=10) is None

        zero = Observation(
            n_attacked=1,
            n_replicas=3,
            n_clients=10,
            expected_bots=2.0,
            prior_strength=0.0,
        )
        assert PosteriorPolicy._trust_prior(zero, upper=10) is None

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
        prior = PosteriorPolicy._trust_prior(seen, upper=10)
        assert prior is not None
        assert prior.shape == (11,)
        assert prior[1] == 0.0  # expected bot count = 1 - trust = 1


# ----------------------------------------------------------------------
# The live chain in a closed loop, replica by replica
# ----------------------------------------------------------------------
BENIGN, BOTS, REPLICAS = 200, 20, 10
BUDGET = shuffle_budget(BENIGN, BOTS, REPLICAS)

#: seed -> (shuffle rounds, benign clients written off, final belief).
#: The deleted sticky-maximum policy wrote off 16-23 benign clients on
#: 8 of these 30 seeds (median 14 rounds); EXPERIMENTS.md, ablation 5.
CLOSED_LOOP_GOLDEN = {
    0: (12, 0, 20), 1: (13, 0, 20), 2: (7, 0, 20), 3: (11, 0, 20),
    4: (13, 0, 20), 5: (12, 0, 20), 6: (14, 0, 20), 7: (11, 0, 20),
    8: (13, 0, 20), 9: (15, 0, 20), 10: (13, 0, 20), 11: (11, 0, 20),
    12: (10, 0, 20), 13: (12, 0, 20), 14: (11, 0, 20), 15: (15, 0, 20),
    16: (12, 0, 20), 17: (12, 0, 20), 18: (12, 0, 20), 19: (12, 0, 20),
    20: (13, 0, 20), 21: (10, 0, 20), 22: (10, 0, 20), 23: (14, 0, 20),
    24: (11, 0, 20), 25: (12, 0, 20), 26: (11, 0, 20), 27: (14, 0, 20),
    28: (11, 0, 20), 29: (11, 0, 20),
}

#: miss probability -> benign clients the deleted sticky-maximum policy
#: wrote off over seeds 0-29 of :func:`closed_loop` (6 and 16 seeds).
STICKY_WRITTEN_OFF = {0.05: 58, 0.15: 67}


@lru_cache(maxsize=None)
def closed_loop(seed: int, miss: float = 0.0) -> tuple[int, int, int, int]:
    """Run the live chain until every bot sits in the quarantine set.

    Replicas carry (clients, bots); bots land by a seeded multivariate
    hypergeometric draw over each plan's non-empty sizes.  Each sweep
    every bot is invisible with probability ``miss``: a replica whose
    bots all hide is not attacked, keeps its clients and attacks again
    later.  The observation is the coordinator's: X and P over the
    replicas outside the quarantine set, the last plan's sizes only
    when every attacked replica came out of it.  Returns (shuffle
    rounds, benign written off, final belief, bots cornered); stops
    early at the shuffle budget.
    """
    rng = np.random.default_rng(seed)
    policy = PosteriorPolicy(planner="greedy")
    size = np.asarray(even_sizes(BENIGN + BOTS, REPLICAS))
    bots = rng.multivariate_hypergeometric(size, BOTS)
    fenced = np.zeros(size.size, dtype=bool)
    planned = np.zeros(size.size, dtype=bool)
    plan_sizes, rounds = None, 0
    while bots[~fenced].any() and rounds < BUDGET:
        seen = bots if miss == 0 else rng.binomial(bots, 1.0 - miss)
        attacked = (seen > 0) & ~fenced
        if not attacked.any():
            continue
        n_clients = int(size[attacked].sum())
        policy.believe(
            Observation(
                n_attacked=int(attacked.sum()),
                n_replicas=int((~fenced).sum()),
                n_clients=n_clients,
                plan_sizes=None if (attacked & ~planned).any() else plan_sizes,
            )
        )
        decision = policy.decide(
            n_clients, ServiceCoordinator.plan_width(n_clients, REPLICAS)
        )
        if decision.action == "quarantine":
            fenced |= attacked
            continue
        assert decision.action == "shuffle"
        rounds += 1
        plan_sizes = decision.plan.group_sizes
        new = np.asarray(decision.plan.nonempty_sizes())
        moved = rng.multivariate_hypergeometric(new, int(bots[attacked].sum()))
        kept = ~attacked
        size = np.concatenate((size[kept], new))
        bots = np.concatenate((bots[kept], moved))
        fenced = np.concatenate((fenced[kept], np.zeros(new.size, bool)))
        planned = np.concatenate(
            (np.zeros(int(kept.sum()), bool), np.ones(new.size, bool))
        )
    cornered = int(bots[fenced].sum())
    assert policy.belief is not None
    return rounds, int(size[fenced].sum()) - cornered, policy.belief, cornered


@pytest.mark.parametrize("seed", sorted(CLOSED_LOOP_GOLDEN))
def test_live_chain_quarantines_every_bot_within_budget(seed):
    rounds, written_off, belief, cornered = closed_loop(seed)
    assert rounds < BUDGET == 42
    assert cornered == BOTS  # every bot is inside the quarantined subset
    assert (rounds, written_off, belief) == CLOSED_LOOP_GOLDEN[seed]


def test_closed_loop_is_the_same_under_an_installed_bundle():
    bundle = Instruments.create(source="core")
    previous = set_default_instruments(bundle)
    try:
        runs = {
            seed: closed_loop.__wrapped__(seed)[:3]
            for seed in sorted(CLOSED_LOOP_GOLDEN)
        }
    finally:
        set_default_instruments(previous)
    assert runs == CLOSED_LOOP_GOLDEN
    assert bundle.spans.named("core_estimate")
    assert bundle.spans.named("core_plan")


def test_closed_loop_round_counts():
    rounds = [closed_loop(seed)[0] for seed in CLOSED_LOOP_GOLDEN]
    assert np.median(rounds) <= 13 and max(rounds) <= 17


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("miss", sorted(STICKY_WRITTEN_OFF))
def test_missed_bots_come_back_and_are_cornered(miss, seed):
    rounds, written_off, _, cornered = closed_loop(seed, miss)
    assert rounds < BUDGET
    assert cornered == BOTS
    assert written_off <= 1


@pytest.mark.parametrize("miss", sorted(STICKY_WRITTEN_OFF))
def test_missed_bots_write_off_a_tenth_of_the_sticky_policy(miss):
    total = sum(closed_loop(seed, miss)[1] for seed in range(30))
    assert 10 * total <= STICKY_WRITTEN_OFF[miss]


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
    assert_replays(calls, PosteriorPolicy(planner="greedy"))


def test_sim_decisions_replay_from_their_observations():
    engine = ShuffleEngine(
        n_replicas=100, estimator="mle", rng=np.random.default_rng(3)
    )
    calls = record_calls(engine.policy)
    state = engine.run(benign=1_500, bots=500, target_fraction=0.8)
    assert len(calls) == 2 * len(state.rounds) > 10
    assert_replays(calls, ShufflePolicy(planner="greedy"))


def test_sim_posterior_decisions_replay_from_their_observations():
    engine = ShuffleEngine(
        n_replicas=100, estimator="posterior", rng=np.random.default_rng(3)
    )
    calls = record_calls(engine.policy)
    state = engine.run(benign=1_500, bots=500, target_fraction=0.8)
    assert len(calls) == 2 * len(state.rounds) > 10
    assert_replays(calls, PosteriorPolicy(planner="greedy"))
