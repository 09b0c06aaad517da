"""The botnet: hit-list management and naive-bot flooding.

Naive bots "can only attack static IP addresses or DNS names on a hit-list
provided by persistent bots" (Section II-B).  We model the naive fleet as
an aggregate flood source of configurable total packet rate — individual
naive bots add nothing to fidelity since they never interact with the
defense beyond raw packets — while the hit-list itself is maintained
exactly as the paper describes: persistent bots reveal replica addresses,
the botmaster propagates them to the fleet after a coordination delay, and
floods aimed at retired (recycled) replicas are simply wasted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import CloudContext

__all__ = ["HitListEntry", "Botnet"]


@dataclass
class HitListEntry:
    """One address on the botnet's target list."""

    address: str
    revealed_at: float
    active_since: float  # when naive bots actually started flooding it


class Botnet:
    """Botmaster state: hit-list plus the aggregate naive flood loop.

    Args:
        ctx: shared simulation context.
        naive_pps: total flood capacity of the naive fleet in packets/s,
            split evenly over the current hit-list.
        propagation_delay: time between a persistent bot's reveal and the
            naive fleet re-targeting — the paper notes this re-coordination
            cost is non-trivial in practice and works in the defender's
            favor.
        flood_tick: granularity at which flood packets are injected.
    """

    def __init__(
        self,
        ctx: "CloudContext",
        naive_pps: float,
        propagation_delay: float = 2.0,
        flood_tick: float = 0.5,
        prune_delay: float = 10.0,
    ) -> None:
        self.ctx = ctx
        self.naive_pps = naive_pps
        self.propagation_delay = propagation_delay
        self.flood_tick = flood_tick
        self.prune_delay = prune_delay
        self._dead_since: dict[str, float] = {}
        self.hit_list: dict[str, HitListEntry] = {}
        self.packets_effective = 0.0
        self.packets_wasted = 0.0
        self.reveals = 0
        self._running = False

    # ------------------------------------------------------------------
    # hit-list
    # ------------------------------------------------------------------
    def reveal(self, address: str) -> None:
        """A persistent bot reports a replica location to the botmaster."""
        self.reveals += 1
        if address in self.hit_list:
            return
        entry = HitListEntry(
            address=address,
            revealed_at=self.ctx.now,
            active_since=self.ctx.now + self.propagation_delay,
        )
        self.hit_list[address] = entry
        self.ctx.trace("botnet_reveal", address=address)

    def forget(self, address: str) -> None:
        """Drop an address (botmaster-side pruning; optional behaviour)."""
        self.hit_list.pop(address, None)

    def targets(self) -> list[str]:
        """Addresses the naive fleet is currently flooding.

        Sorted by address so flood delivery (and the replica-load events
        it schedules) has a canonical order independent of reveal
        history.
        """
        return [
            entry.address
            for _, entry in sorted(self.hit_list.items())
            if entry.active_since <= self.ctx.now
        ]

    # ------------------------------------------------------------------
    # flooding
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic aggregate flood."""
        if self._running:
            return
        self._running = True
        self.ctx.sim.schedule(self.flood_tick, self._flood)

    def stop(self) -> None:
        self._running = False

    def _flood(self) -> None:
        if not self._running:
            return
        targets = self.targets()
        if targets:
            per_target = self.naive_pps * self.flood_tick / len(targets)
            for address in targets:
                replica = self.ctx.replica_by_address(address)
                if replica is not None and replica.is_active:
                    # The naive fleet is modelled in aggregate; its
                    # collective label is what the replica's sketch
                    # attributes the flood mass to.
                    replica.receive_flood(per_target, source="naive-fleet")
                    self.packets_effective += per_target
                    self._dead_since.pop(address, None)
                else:
                    # The moving target moved: packets to recycled
                    # addresses are null-routed (pure attacker waste).
                    self.packets_wasted += per_target
                    self._dead_since.setdefault(address, self.ctx.now)
        self._prune()
        self.ctx.sim.schedule(self.flood_tick, self._flood)

    def _prune(self) -> None:
        """Botmaster re-coordination: drop long-dead targets.

        The paper notes botnets "re-coordinate and re-focus their traffic"
        only after non-trivial effort and time; ``prune_delay`` is that
        cost.  Until it elapses, flood capacity keeps draining into
        null-routed addresses.
        """
        expired = [
            address
            for address, dead_at in sorted(self._dead_since.items())
            if self.ctx.now - dead_at >= self.prune_delay
        ]
        for address in expired:
            self.hit_list.pop(address, None)
            del self._dead_since[address]

    @property
    def waste_ratio(self) -> float:
        """Fraction of naive flood aimed at already-recycled replicas."""
        total = self.packets_effective + self.packets_wasted
        if total == 0:
            return 0.0
        return self.packets_wasted / total
