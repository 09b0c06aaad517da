"""Multi-round shuffling engine (paper Sections IV & VI-A, counts level).

This module implements the defense's *control loop* over aggregate counts:
each round the coordination server plans group sizes for the clients still
under attack, clients (benign + bots) are matched uniformly at random to the
planned slots, replicas that received no bot save their clients, and the
rest — all bots plus the unlucky benign — go into the next round.

Working with counts instead of individual client objects is exact for this
model: the only randomness is *how many bots land on each replica*, which is
a multivariate hypergeometric draw over the planned group sizes.  The
full-fidelity, per-client discrete-event version of the same loop lives in
:mod:`repro.cloudsim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..obs.instruments import Instruments, resolve_instruments
from .api import PlanSource
from .estimator import BotEstimate
from .plan import ShufflePlan
from .policy import Observation, PosteriorPolicy, ShufflePolicy

__all__ = [
    "DEFAULT_SEED",
    "RoundResult",
    "ShuffleState",
    "ShuffleEngine",
]

#: Seed for the engine's default generator.  Callers wanting independent
#: streams pass their own ``rng``; the default is deliberately *fixed* so
#: that an engine constructed without one is still bit-for-bit
#: reproducible (reprolint rule R1 bans entropy-seeded ``default_rng()``
#: in library code).
DEFAULT_SEED = 20140623  # DSN 2014 — the paper's venue, June 23 2014


ESTIMATORS = ("oracle", "posterior", "mle")


@dataclass(frozen=True)
class RoundResult:
    """Everything observable (and the hidden truth) about one shuffle."""

    round_index: int
    n_clients: int
    true_bots: int
    believed_bots: int
    plan: ShufflePlan
    bots_per_replica: tuple[int, ...]
    n_attacked: int
    benign_saved: int
    benign_remaining: int
    bots_remaining: int
    estimate: BotEstimate | None = None

    @property
    def attacked_fraction(self) -> float:
        """Share of shuffling replicas that came under attack."""
        return self.n_attacked / max(1, self.plan.n_replicas)


@dataclass
class ShuffleState:
    """Mutable population state carried across shuffles."""

    benign_active: int
    bots_active: int
    benign_saved: int = 0
    benign_initial: int = 0
    benign_total_seen: int = 0
    rounds: list[RoundResult] = field(default_factory=list)

    @property
    def n_active(self) -> int:
        return self.benign_active + self.bots_active

    @property
    def saved_fraction(self) -> float:
        """Saved share of the *initial* benign population.

        The paper's "save 80% of benign clients" counts against the benign
        population present when the attack started; late Poisson arrivals
        do not move the goalposts (but do count toward ``benign_saved``
        once rescued).
        """
        if self.benign_initial == 0:
            return 1.0
        return self.benign_saved / self.benign_initial


class ShuffleEngine:
    """Drives repeated shuffles until a saving target or round cap is hit.

    Args:
        n_replicas: constant number of shuffling replicas ``P`` (the paper
            keeps ``P`` fixed by activating fresh replicas as others leave
            the shuffle set).
        planner: a :data:`~repro.core.api.PLAN_METHODS` name or any
            :class:`~repro.core.api.PlanSource`.
        estimator: how the engine obtains the bot count fed to the planner:
            ``"oracle"`` plans on a point mass at the true count (the
            paper's simulation setting), ``"posterior"`` carries
            :class:`~repro.core.policy.PosteriorPolicy`'s posterior over
            the plans' actual group sizes (the rule the DES and the live
            coordinator run), ``"mle"`` is the paper's memoryless uniform
            occupancy MLE.  The last two observe only the previous
            round's attacked replicas, exactly like the real
            coordination server, and plan round one at the truth.
        rng: numpy random generator (seeded by caller for independent
            streams; defaults to ``default_rng(DEFAULT_SEED)`` so even
            bare engines are reproducible).
        adaptive_growth: implement Section V's Theorem 1 response — when a
            round ends with *every* shuffling replica attacked (the regime
            where estimation degenerates and no client can be saved), grow
            the replica pool for subsequent rounds.  "The resource
            elasticity permitted by the underlying cloud infrastructure
            allows sufficient space for us to increase the number of
            replica servers."  Each saturated round doubles the pool.
        max_replicas: optional cap on adaptive growth.
        instruments: optional :class:`repro.obs.Instruments` handle (the
            repo-wide ``instruments=`` convention — see CONTRIBUTING).
            ``None`` (the default) resolves to the process-wide default,
            else to :data:`repro.obs.DISABLED`; every :meth:`run_round`
            records a span tree (plan → shuffle → estimate; the oracle
            does not estimate, and the policy's ``core_plan`` /
            ``core_estimate`` nest under them) and updates the
            ``shuffle_*`` metric families.
    """

    def __init__(
        self,
        n_replicas: int,
        planner: PlanSource | str = "greedy",
        estimator: str = "oracle",
        rng: np.random.Generator | None = None,
        adaptive_growth: bool = False,
        max_replicas: int | None = None,
        instruments: Instruments | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas={n_replicas} must be >= 1")
        if estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r}; choose from {ESTIMATORS}"
            )
        if max_replicas is not None and max_replicas < n_replicas:
            raise ValueError("max_replicas must be >= n_replicas")
        self.n_replicas = n_replicas
        self.estimator = estimator
        self.rng = (
            rng if rng is not None else np.random.default_rng(DEFAULT_SEED)
        )
        self.adaptive_growth = adaptive_growth
        self.max_replicas = max_replicas
        self.instruments = resolve_instruments(instruments)
        #: the decision itself (believe -> plan); it and a planner it
        #: builds from a name report to the handle the engine was given
        #: (``None`` resolves per call, as everywhere)
        self.policy = (
            ShufflePolicy(planner=planner, instruments=instruments)
            if estimator == "mle"
            else PosteriorPolicy(planner=planner, instruments=instruments)
        )
        self.planner_name = getattr(
            self.policy.planner, "__name__", "custom"
        )

    def run_round(self, state: ShuffleState) -> RoundResult:
        """Execute one shuffle round, mutating ``state``."""
        obs = self.instruments
        with obs.spans.span(
            "shuffle_round", round=len(state.rounds)
        ) as round_span:
            n_clients = state.n_active
            true_bots = state.bots_active
            policy = self.policy
            if self.estimator == "oracle" or policy.belief is None:
                # First round has no observation yet; the engine starts
                # from the truth (equivalently: operators seed the system
                # with their attack-detection estimate).  With no
                # posterior carried, the policy plans on a point mass at
                # it.
                policy.belief = true_bots
            with obs.spans.span("plan") as span:
                decision = policy.decide(n_clients, self.n_replicas)
                span.set(believed_bots=decision.believed_bots)
            # Counts have nowhere to quarantine to: the plan is carried
            # out whatever the action.
            plan = decision.plan

            sizes = plan.sizes_array
            with obs.spans.span("shuffle"):
                bots_per_replica = self._draw_bots(
                    sizes, true_bots, n_clients
                )

            attacked = bots_per_replica > 0
            n_attacked = int(np.count_nonzero(attacked))
            # Bot-free replicas hold only benign clients — all of them
            # are saved.  The plan's sizes sum to its n_clients.
            on_attacked = int(sizes @ attacked)
            benign_saved = plan.n_clients - on_attacked
            state.benign_active -= benign_saved
            state.benign_saved += benign_saved

            seen = Observation(
                n_attacked=n_attacked,
                n_replicas=plan.n_replicas,
                n_clients=on_attacked,
                plan_sizes=plan.group_sizes,
            )
            estimate = None
            if self.estimator != "oracle":
                with obs.spans.span("estimate") as span:
                    estimate = policy.believe(seen)
                    if estimate is not None:
                        span.set(m_hat=estimate.m_hat)
            if (
                self.adaptive_growth
                and n_attacked == plan.n_replicas
                and plan.n_replicas > 0
            ):
                # Theorem 1 regime: every replica attacked, nothing
                # saved, estimation degenerate.  Double the pool for the
                # next round.
                grown = 2 * self.n_replicas
                if self.max_replicas is not None:
                    grown = min(grown, self.max_replicas)
                self.n_replicas = max(self.n_replicas, grown)
            result = RoundResult(
                round_index=len(state.rounds),
                n_clients=n_clients,
                true_bots=true_bots,
                believed_bots=decision.believed_bots,
                plan=plan,
                bots_per_replica=tuple(bots_per_replica.tolist()),
                n_attacked=n_attacked,
                benign_saved=benign_saved,
                benign_remaining=state.benign_active,
                bots_remaining=state.bots_active,
                estimate=estimate,
            )
            state.rounds.append(result)
            round_span.set(
                n_clients=n_clients,
                n_attacked=n_attacked,
                benign_saved=benign_saved,
            )
        obs.registry.counter(
            "shuffle_rounds_total",
            "Shuffle rounds executed by the counts-level engine.",
            ("planner", "estimator"),
        ).inc(planner=self.planner_name, estimator=self.estimator)
        obs.registry.counter(
            "shuffle_benign_saved_total",
            "Benign clients saved (landed on bot-free replicas).",
        ).inc(benign_saved)
        obs.registry.gauge(
            "shuffle_believed_bots",
            "Bot count handed to the planner this round.",
        ).set(decision.believed_bots)
        obs.registry.histogram(
            "shuffle_attacked_fraction",
            "Share of shuffling replicas attacked per round.",
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
        ).observe(result.attacked_fraction)
        return result

    def _draw_bots(
        self,
        sizes: np.ndarray,
        true_bots: int,
        n_clients: int,
    ) -> np.ndarray:
        """Multivariate-hypergeometric bot placement over plan sizes."""
        if true_bots > 0 and n_clients > 0:
            drawn: np.ndarray = self.rng.multivariate_hypergeometric(
                sizes, true_bots
            )
            return drawn
        return np.zeros(sizes.size, dtype=np.int64)

    def run(
        self,
        benign: int,
        bots: int,
        target_fraction: float = 0.8,
        max_rounds: int = 10_000,
        arrivals: Callable[[int, np.random.Generator], tuple[int, int]]
        | None = None,
    ) -> ShuffleState:
        """Shuffle until ``target_fraction`` of benign clients are saved.

        Args:
            benign: initial benign client population.
            bots: initial persistent-bot population.
            target_fraction: stop once this fraction of the initial benign
                population has been saved (:attr:`ShuffleState.
                saved_fraction`).
            max_rounds: hard cap to bound degenerate runs.
            arrivals: optional callable ``(round_index, rng) ->
                (new_benign, new_bots)`` applied *before* each round — the
                paper's Poisson arrival processes plug in here.
        """
        if not 0 <= target_fraction <= 1:
            raise ValueError("target_fraction must be within [0, 1]")
        state = ShuffleState(
            benign_active=benign,
            bots_active=bots,
            benign_initial=benign,
            benign_total_seen=benign,
        )
        self.policy.forget()
        for round_index in range(max_rounds):
            if arrivals is not None:
                new_benign, new_bots = arrivals(round_index, self.rng)
                state.benign_active += new_benign
                state.benign_total_seen += new_benign
                state.bots_active += new_bots
            if state.saved_fraction >= target_fraction:
                break
            if state.n_active == 0:
                break
            self.run_round(state)
        return state


def shuffle_trajectory(
    state: ShuffleState,
) -> Iterator[tuple[int, int, float]]:
    """Yield ``(round_index, benign_saved_cumulative, saved_fraction)``.

    Convenience accessor for Figure 10-style cumulative curves; the
    fraction is of the initial benign population (paper semantics).
    """
    cumulative = 0
    for result in state.rounds:
        cumulative += result.benign_saved
        fraction = cumulative / max(1, state.benign_initial)
        yield result.round_index, cumulative, fraction
