"""Fault injection: unplanned replica failures and recovery.

DDoS is not the only thing that kills a replica — instances crash.  The
architecture handles this for free: the coordinator's sweep notices dead
replicas, removes them from the load balancers, and provisions
replacements; affected clients fall back to the DNS → load-balancer
re-entry path (the same one that catches stragglers who miss a shuffle
redirect).  :class:`ChaosMonkey` drives random crashes so tests and
benchmarks can verify the recovery path under load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import CloudContext

__all__ = ["ChaosMonkey"]


@dataclass
class ChaosMonkey:
    """Randomly crashes active replicas.

    Args:
        ctx: simulation context.
        crash_rate: expected crashes per second across the fleet.
        tick: scheduling granularity.
    """

    ctx: "CloudContext"
    crash_rate: float = 0.05
    tick: float = 1.0
    crashes: int = field(default=0, init=False)
    _running: bool = field(default=False, init=False)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.ctx.sim.schedule(self.tick, self._maybe_crash)

    def stop(self) -> None:
        self._running = False

    def _maybe_crash(self) -> None:
        if not self._running:
            return
        count = int(self.ctx.rng.poisson(self.crash_rate * self.tick))
        active = self.ctx.active_replicas()
        for _ in range(min(count, len(active))):
            victim = active[int(self.ctx.rng.integers(len(active)))]
            if victim.is_active:
                self.crashes += 1
                self.ctx.trace(
                    "replica_crashed", address=victim.endpoint.address
                )
                self.ctx.fail_replica(victim)
        self.ctx.sim.schedule(self.tick, self._maybe_crash)
