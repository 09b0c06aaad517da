"""The core's two decision calls (the one core seam).

    estimate(n_attacked, n_replicas, upper_bound)  -> BotEstimate
    plan(n_clients, n_bots, n_replicas, method=)   -> ShufflePlan

Both take the repo-wide ``instruments=`` keyword.  Each call maps onto
exactly one vectorized kernel (``repro.core.estimator`` / the planner
modules), so behaviour is bit-identical to calling the kernel directly.
``estimate`` is the paper's uniform occupancy MLE; ``plan`` defaults to
greedy.

See ``docs/core-api.md``.
"""

from __future__ import annotations

from typing import Protocol

from ..obs.instruments import Instruments, resolve_instruments
from .dp import _dp_plan
from .dp_fast import _dp_fast_plan
from .estimator import BotEstimate, _estimate_mle
from .even import _even_plan
from .greedy import _greedy_plan
from .plan import ShufflePlan

__all__ = [
    "PLAN_METHODS",
    "PlanSource",
    "estimate",
    "plan",
    "planner",
]


class PlanSource(Protocol):
    """Anything that serves a plan for ``(N, M, P)`` — e.g. a PlanCache."""

    def __call__(
        self, n_clients: int, n_bots: int, n_replicas: int
    ) -> ShufflePlan: ...


_KERNELS: dict[str, PlanSource] = {
    "greedy": _greedy_plan,
    "even": _even_plan,
    "dp": _dp_plan,
    "dp_fast": _dp_fast_plan,
}

#: The plan methods :func:`plan` and :func:`planner` accept.
PLAN_METHODS = tuple(_KERNELS)


def _kernel(method: str) -> PlanSource:
    try:
        return _KERNELS[method]
    except KeyError:
        raise ValueError(
            f"unknown plan method {method!r}; choose from {PLAN_METHODS}"
        ) from None


def estimate(
    n_attacked: int,
    n_replicas: int,
    upper_bound: int,
    *,
    instruments: Instruments | None = None,
) -> BotEstimate:
    """The occupancy MLE of the bot count behind ``X`` attacked replicas.

    Args:
        n_attacked: observed attacked-replica count ``X``.
        n_replicas: replica count ``P``.
        upper_bound: largest admissible bot count (the clients on the
            attacked replicas).
        instruments: optional :class:`repro.obs.Instruments` handle (the
            repo-wide ``instruments=`` convention, resolved per call);
            the call records a ``core_estimate`` span and bumps
            ``core_estimate_total{method="mle"}``.
    """
    obs = resolve_instruments(instruments)
    with obs.spans.span("core_estimate", method="mle") as span:
        result = _estimate_mle(n_attacked, n_replicas, upper_bound)
        span.set(m_hat=result.m_hat, degenerate=result.degenerate)
    obs.registry.counter(
        "core_estimate_total",
        "Estimation requests dispatched through repro.core.api.",
        ("method",),
    ).inc(method="mle")
    return result


def plan(
    n_clients: int,
    n_bots: int,
    n_replicas: int,
    method: str = "greedy",
    *,
    instruments: Instruments | None = None,
) -> ShufflePlan:
    """Plan ``n_clients`` clients, ``n_bots`` of them bots, over
    ``n_replicas`` replicas with one of :data:`PLAN_METHODS`.

    Args:
        instruments: optional :class:`repro.obs.Instruments` handle,
            resolved per call; the call records a ``core_plan`` span and bumps
            ``core_plan_total{method=...}``.
    """
    kernel = _kernel(method)
    obs = resolve_instruments(instruments)
    with obs.spans.span("core_plan", method=method) as span:
        result = kernel(n_clients, n_bots, n_replicas)
        span.set(
            expected_saved=result.expected_saved,
            algorithm=result.algorithm,
        )
    obs.registry.counter(
        "core_plan_total",
        "Planning requests dispatched through repro.core.api.",
        ("method",),
    ).inc(method=method)
    return result


def planner(
    method: str, *, instruments: Instruments | None = None
) -> PlanSource:
    """:func:`plan` with ``method`` bound, as a :class:`PlanSource` named
    after it (the engine's ``planner=`` label).  An unknown ``method``
    raises here, not at the first plan."""
    _kernel(method)

    def _call(n_clients: int, n_bots: int, n_replicas: int) -> ShufflePlan:
        return plan(
            n_clients, n_bots, n_replicas, method, instruments=instruments
        )

    _call.__name__ = method
    return _call
