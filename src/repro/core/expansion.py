"""Pure server-expansion baseline ("attack dilution").

The paper's introduction positions shuffling against "attack dilution
strategies using pure server expansion": instead of moving targets and
re-assigning clients, simply add replicas and spread everyone thinner,
hoping enough replicas end up bot-free.  This module makes that baseline
precise so the resource claim — *shuffling contains attacks with far fewer
resources* — can be measured (``python -m repro.experiments ablations``).

Under expansion with an even spread of ``N`` clients over ``P`` replicas,
a replica is clean iff none of the ``M`` persistent bots landed on it, so
the expected benign fraction saved is the Equation 1 value of the even
plan.  Because expansion performs **no isolation**, this is a one-shot
number: the bots stay in the population, and keeping the service at the
target quality requires keeping all ``P`` replicas up for the attack's
whole duration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .even import _even_plan

__all__ = [
    "expansion_saved_fraction",
    "expansion_replicas_needed",
    "ExpansionPlan",
]


def expansion_saved_fraction(
    n_clients: int, n_bots: int, n_replicas: int
) -> float:
    """Benign fraction protected by pure expansion to ``n_replicas``.

    Evaluates Equation 1 for the even spread — the only lever expansion
    has — normalized by the benign population.
    """
    if n_clients <= n_bots:
        return 0.0
    plan = _even_plan(n_clients, n_bots, n_replicas)
    return plan.expected_saved / (n_clients - n_bots)


def expansion_replicas_needed(
    n_clients: int,
    n_bots: int,
    target_fraction: float,
    max_replicas: int = 1 << 26,
) -> int:
    """Replicas pure expansion needs to protect ``target_fraction`` benign.

    Binary search on :func:`expansion_saved_fraction`, which is monotone
    non-decreasing in ``P``.  For ``M`` bots and large ``P`` the saved
    fraction approaches ``(1 - 1/P)^M ~ exp(-M/P)``, so the requirement
    scales as ``P ~ M / ln(1/target)`` — e.g. ~4.5x the *bot population*
    for an 80% target, which is what makes dilution so expensive.

    Raises :class:`OverflowError` if the target is unreachable below
    ``max_replicas``.
    """
    if not 0 < target_fraction < 1:
        raise ValueError("target_fraction must be in (0, 1)")
    if n_clients <= n_bots:
        raise ValueError("no benign clients to protect")
    if n_bots == 0:
        return 1
    lo, hi = 1, 2
    while expansion_saved_fraction(n_clients, n_bots, hi) < target_fraction:
        hi *= 2
        if hi > max_replicas:
            raise OverflowError(
                f"pure expansion cannot reach {target_fraction:.0%} below "
                f"{max_replicas} replicas"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if expansion_saved_fraction(
            n_clients, n_bots, mid
        ) >= target_fraction:
            hi = mid
        else:
            lo = mid + 1
    return hi


@dataclass(frozen=True)
class ExpansionPlan:
    """A fully resolved expansion response to an attack."""

    n_clients: int
    n_bots: int
    target_fraction: float
    replicas_needed: int

    @classmethod
    def solve(
        cls, n_clients: int, n_bots: int, target_fraction: float
    ) -> "ExpansionPlan":
        return cls(
            n_clients=n_clients,
            n_bots=n_bots,
            target_fraction=target_fraction,
            replicas_needed=expansion_replicas_needed(
                n_clients, n_bots, target_fraction
            ),
        )

    @property
    def achieved_fraction(self) -> float:
        return expansion_saved_fraction(
            self.n_clients, self.n_bots, self.replicas_needed
        )
