"""Reconnaissance and spoofing adversaries (paper Section VII).

Two attack vectors the paper argues the architecture defeats structurally:

- **IP spoofing** — "If not using their real IP addresses, bots are unable
  to receive the redirection messages sent by servers or the load
  balancers, hence will be left behind our moving replica servers."
  Redirection is a two-way handshake: a spoofed source never learns a
  replica address and never lands on a whitelist, so its junk stops at
  the (well-provisioned, auto-scaling) load balancers.

- **Scanning** — "attackers may perform reconnaissance attacks such as IP
  and port scanning.  However, since we constantly shift the network
  locations of the replica servers, it is difficult for attackers to pick
  the right target even if they have profiled the entire IP pool."
  A scanner that probes random addresses in the cloud's pool finds an
  active replica with probability ``active replicas / pool size``, and
  whatever it finds goes stale at the next substitution — and is
  whitelist-rejected meanwhile.

Both adversaries are implemented against the real simulated components so
the defense properties are *measured*, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import CloudContext

__all__ = ["SpoofingFlooder", "ReconnaissanceScanner"]


@dataclass
class SpoofingFlooder:
    """A flood of connection attempts with forged source addresses.

    Spoofed packets reach the load balancers (which absorb them — the
    paper assumes auto-scaling LBs with tens of Gbps of capacity) but the
    redirect replies go to the forged addresses, so the attacker never
    completes the handshake: no whitelist entry, no replica address, no
    replica traffic.
    """

    ctx: "CloudContext"
    packets_per_second: float = 10_000.0
    tick: float = 0.5
    packets_sent: float = field(default=0.0, init=False)
    replica_addresses_learned: int = field(default=0, init=False)
    _running: bool = field(default=False, init=False)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.ctx.sim.schedule(self.tick, self._flood)

    def stop(self) -> None:
        self._running = False

    def _flood(self) -> None:
        if not self._running:
            return
        batch = self.packets_per_second * self.tick
        self.packets_sent += batch
        # The load balancer replies toward the spoofed sources; the
        # attacker observes nothing.  No whitelist mutation, no replica
        # load — this is precisely the structural claim, and the replica
        # assertion lives in the tests: their meters stay untouched.
        for _, balancer in sorted(self.ctx.balancers.items()):
            balancer.spoofed_packets += batch / max(
                1, len(self.ctx.balancers)
            )
        self.ctx.sim.schedule(self.tick, self._flood)


@dataclass
class ScanReport:
    """Cumulative scanning outcome."""

    probes: int = 0
    hits: int = 0  # probe landed on a then-active replica address
    stale_hits: int = 0  # probed an address that was once a replica
    admitted_requests: int = 0  # requests a replica actually served


class ReconnaissanceScanner:
    """Randomly probes the cloud address pool for replica servers.

    Args:
        ctx: simulation context.
        pool_size: size of the address space the replicas hide in (the
            provider's public pool).  Replica addresses are assumed to be
            drawn uniformly from it.
        probes_per_second: scanner speed.
    """

    def __init__(
        self,
        ctx: "CloudContext",
        pool_size: int = 65_536,
        probes_per_second: float = 100.0,
        tick: float = 0.5,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.ctx = ctx
        self.pool_size = pool_size
        self.probes_per_second = probes_per_second
        self.tick = tick
        self.report = ScanReport()
        self.discovered: list[str] = []
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.ctx.sim.schedule(self.tick, self._scan)

    def stop(self) -> None:
        self._running = False

    def hit_probability(self) -> float:
        """Chance a single uniform probe lands on an active replica."""
        return len(self.ctx.active_replicas()) / self.pool_size

    def _scan(self) -> None:
        if not self._running:
            return
        probes = int(round(self.probes_per_second * self.tick))
        self.report.probes += probes
        # Binomial thinning instead of enumerating the whole pool.
        hits = int(
            self.ctx.rng.binomial(probes, min(1.0, self.hit_probability()))
        )
        active = self.ctx.active_replicas()
        for _ in range(hits):
            replica = active[int(self.ctx.rng.integers(len(active)))]
            self.report.hits += 1
            self.discovered.append(replica.endpoint.address)
            # Try to use the discovery: an un-whitelisted request.
            served = replica.handle_request(
                f"scanner-{self.report.probes}", 1.0
            )
            if served is not None:
                self.report.admitted_requests += 1
        self.ctx.sim.schedule(self.tick, self._scan)

    def stale_fraction(self) -> float:
        """How many past discoveries no longer point at an active replica."""
        if not self.discovered:
            return 0.0
        stale = sum(
            1
            for address in self.discovered
            if (replica := self.ctx.replica_by_address(address)) is None
            or not replica.is_active
        )
        return stale / len(self.discovered)
