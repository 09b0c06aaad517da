"""The coordination server's decision (paper Sections III-D, IV and V).

One loop, whatever runs it: count the attacked replicas, estimate the
bot count ``M``, plan group sizes for the clients still under attack,
shuffle them or stop.  This module is that decision and nothing else —
no clock, no I/O, no randomness; the counts engine, the DES coordinator
and the live coordinator only build the :class:`Observation`, open their
spans and carry out the :class:`Decision` (see ``docs/live-vs-sim.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..obs.instruments import Instruments
from ..trust.prior import bot_count_log_prior
from . import api
from .estimator import BotEstimate
from .plan import ShufflePlan

__all__ = [
    "Decision",
    "LivePolicy",
    "Observation",
    "ShufflePolicy",
    "theorem1_guess",
]


@dataclass(frozen=True)
class Observation:
    """What one detection sweep (or one finished round) showed."""

    #: attacked replicas ``X``, out of the ``P`` the count was taken over
    n_attacked: int
    n_replicas: int
    #: clients on the attacked replicas: the most bots ``X`` admits
    n_clients: int
    #: the previous plan's group sizes, given only when every attacked
    #: replica came out of it: every bot rode the previous shuffle, so
    #: its sizes are the occupancy model for this count
    plan_sizes: tuple[int, ...] | None = None
    #: the trust model's expected bot count among those clients (their
    #: low-trust mass ``sum(1 - trust)``), and the weight of that prior
    expected_bots: float | None = None
    prior_strength: float = 1.0
    #: clients shown by heavy-hitter reports to send attack-scale traffic
    demonstrated_bots: int = 0


@dataclass(frozen=True)
class Decision:
    """``action`` is ``"shuffle"`` (carry out ``plan``), ``"quarantine"``
    (write the attacked replicas off) or ``"hold"`` (nothing this sweep:
    the belief moved and the next sweep re-plans)."""

    action: str
    believed_bots: int
    plan: ShufflePlan


class ShufflePolicy:
    """The paper's memoryless rule: one estimate per observation,
    clamped to the population, planned.  ``planner`` is an
    ``api.PLAN_METHODS`` name or any ``PlanSource``; ``estimator`` is
    ``"oracle"`` (the driver sets :attr:`belief` to the truth) or an
    ``api.ESTIMATE_METHODS`` name, ``"auto"`` meaning ``weighted`` when
    the observation carries plan sizes and ``mle`` otherwise."""

    def __init__(
        self,
        planner: api.PlanSource | str = "greedy",
        estimator: str = "mle",
        instruments: Instruments | None = None,
    ) -> None:
        if isinstance(planner, str):
            planner = api.planner(planner, instruments=instruments)
        self.planner = planner
        self.estimator = estimator
        self.instruments = instruments
        #: the carried bot count; ``None`` before any evidence
        self.belief: int | None = None
        #: the estimator behind the latest belief update
        self.method = estimator

    def believe(self, seen: Observation) -> BotEstimate | None:
        """Step 1: update the carried belief from one observation."""
        if self.estimator == "oracle":
            return None
        self.method = self.estimator
        if self.method == "auto":
            self.method = "mle" if seen.plan_sizes is None else "weighted"
        # weighted: the likelihood over the plan's *actual* group sizes
        weighted = self.method == "weighted"
        upper = max(seen.n_clients, seen.n_attacked)
        if weighted:
            upper = sum(seen.plan_sizes or ())
        request = api.EstimateRequest(
            seen.n_attacked,
            seen.n_replicas,
            upper,
            sizes=seen.plan_sizes if weighted else None,
            log_prior=self._trust_prior(seen, upper),
            method=self.method,
        )
        result = api.estimate(request, instruments=self.instruments)
        self.belief = result.m_hat
        return result

    @staticmethod
    def _trust_prior(seen: Observation, upper: int) -> np.ndarray | None:
        """Log-prior pulling the MAP estimate toward the trust model's
        expected count; ``None`` (the estimators' pure-likelihood path)
        without a trust model or at strength 0."""
        if seen.expected_bots is None or seen.prior_strength <= 0:
            return None
        return bot_count_log_prior(
            upper, seen.expected_bots, seen.prior_strength
        )

    def believed(self, n_clients: int) -> int:
        """The carried belief, clamped to a population of ``n_clients``."""
        if self.belief is None:
            raise ValueError("no belief yet: nothing has been observed")
        return max(0, min(self.belief, n_clients))

    def decide(self, n_clients: int, n_replicas: int) -> Decision:
        """Step 2: plan ``n_clients`` over ``n_replicas`` replicas."""
        believed = self.believed(n_clients)
        plan = self.planner(n_clients, believed, n_replicas)
        return Decision("shuffle", believed, plan)


# ----------------------------------------------------------------------
# The live extension: five rules ServiceCoordinator grew around the
# memoryless estimator, moved here as they were.  Everything below this
# line is what ROADMAP items 1(a) and 2 delete.
def theorem1_guess(n_replicas: int) -> int:
    """Bot-count guess when MLE degenerates with no prior belief.

    ``X = P`` only says ``M`` exceeds the Theorem 1 saturation threshold
    ``log_{1-1/P}(1/P) ~ P ln P``; the threshold itself is the smallest
    count consistent with what was seen.
    """
    if n_replicas < 2:
        return 1
    return math.ceil(
        math.log(1.0 / n_replicas) / math.log1p(-1.0 / n_replicas)
    )


class LivePolicy(ShufflePolicy):
    """:class:`ShufflePolicy` plus sticky belief, Theorem 1 guess,
    endgame dispersion, quarantine threshold and heavy-hitter floor;
    ``planner`` is the plan cache, ``n_replicas`` the configured pool."""

    #: Quarantine once the planner's Equation 1 expects fewer than this
    #: many clients saved by another round.  Below 1.0 because an
    #: expectation of, say, 0.7 is still worth a (cheap) round when the
    #: sticky bot belief may overcount by one or two stragglers.
    QUARANTINE_EXPECTED_SAVED = 0.5

    #: Endgame dispersion kicks in only when the subset fits within
    #: this many times the configured pool size (bounds the transient
    #: replica fan-out of the singleton round).
    DISPERSE_MAX_FACTOR = 4

    #: heavy-hitter lower bound on ``M`` from the latest observation
    demonstrated = 0

    def believe(self, seen: Observation) -> BotEstimate | None:
        self.demonstrated = seen.demonstrated_bots
        held = self.belief
        result = super().believe(seen)
        if result is None:
            return None
        m_hat = result.m_hat
        if result.degenerate:
            # Every replica attacked (Theorem 1 regime): keep the
            # previous belief, or with none guess the threshold.
            m_hat = theorem1_guess(seen.n_replicas) if held is None else held
        # Belief persistence: persistent bots never leave the
        # reshuffled subset, so the true M is constant while per-round
        # observations only ever *miss* bots (a bot mid-reconnect is
        # invisible to this sweep).  Keeping the running maximum makes
        # the endgame terminate: once the subset shrinks to the
        # believed count, Equation 1 yields E[S] ~ 0 and the
        # coordinator quarantines instead of shuffling bots forever.
        if held is not None:
            m_hat = max(m_hat, held)
        self.belief = m_hat
        return result

    def decide(self, n_clients: int, n_replicas: int) -> Decision:
        believed = self.believed(n_clients)
        # Plan across the full shuffle width, not just the attacked
        # count: with one attacked replica and one replacement there
        # is nowhere to separate bots from benign.
        width = min(n_replicas, n_clients)
        fits = 2 <= n_clients <= self.DISPERSE_MAX_FACTOR * n_replicas
        if 2 * believed >= n_clients and fits:
            # Endgame dispersion: the subset is small and believed
            # mostly bots — give every remaining client a replica
            # of their own.  One singleton round separates every
            # benign straggler from every bot exactly, instead of
            # grinding out fractional E[S] with mixed groups.
            width = n_clients
        request = api.PlanRequest(
            n_clients, believed, width, method="cached", cache=self.planner
        )
        plan = api.plan(request, instruments=self.instruments)
        if plan.expected_saved >= self.QUARANTINE_EXPECTED_SAVED:
            return Decision("shuffle", believed, plan)
        # Equation 1 says no further shuffle of *these* clients saves
        # anyone: the population is believed all-bot (the common case
        # is a single bot isolated on its own replica).  Before giving
        # up on them, check the heavy-hitter evidence: every suspect
        # demonstrably sent a dominant share of some saturated window
        # (guaranteed counts, not estimates), so the bot population is
        # at least that large.  If more bots are demonstrated than the
        # structural estimate has converged to, quarantining now would
        # write off clients a wider shuffle could still save — adopt
        # the demonstrated floor and let the next sweep re-plan with it.
        if self.belief is not None and self.demonstrated > self.belief:
            self.belief = self.demonstrated
            return Decision("hold", believed, plan)
        return Decision("quarantine", believed, plan)
