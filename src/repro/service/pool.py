"""The live replica pool: fixed-size fleet with fresh-port substitution.

The paper keeps the number of *advertised* replicas constant while their
network identities churn: every shuffle retires the attacked instances
and "instantiates the same number of replacement server instances" at
addresses the attacker has never seen.  On localhost the moving-target
dimension is the TCP port — substitution binds the replacement backend
to a fresh OS-assigned port, so a bot that memorised the old address is
flooding a closed socket.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from ..obs.instruments import DISABLED, Instruments
from ..trust import TrustManager
from .backend import ReplicaBackend
from .config import ServiceConfig

__all__ = ["ReplicaPool"]


class ReplicaPool:
    """Fleet of :class:`ReplicaBackend` servers, size held at ``P``.

    Replica IDs are monotonic (``r-1``, ``r-2``, ...) and never reused,
    so shuffle records can always tell a substitute from the instance it
    replaced.  Iteration order over active replicas is id order: a
    batch registers in id order, after every earlier batch —
    deterministic regardless of dict mutation history or of which
    listener in a batch came up first.
    """

    def __init__(
        self,
        config: ServiceConfig,
        clock: Callable[[], float] = time.monotonic,
        instruments: Instruments | None = None,
        trust: TrustManager | None = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self.instruments = instruments or DISABLED
        self.trust = trust
        self._counter = 0
        self.backends: dict[str, ReplicaBackend] = {}
        self.retired: dict[str, ReplicaBackend] = {}
        # Membership mutations happen from the detect loop's shuffles
        # and from the shutdown path concurrently; one lock covers all
        # of them.  ``_active`` is the O(1) index the per-request
        # ``active()`` call reads — membership changes only here, at
        # mutation time, never by scanning per request.
        self._lock = asyncio.Lock()
        self._active: dict[str, ReplicaBackend] = {}

    # ------------------------------------------------------------------
    async def spawn(self, count: int = 1) -> list[ReplicaBackend]:
        """Boot ``count`` fresh backends at never-advertised ports.

        The one boot entry point, all-or-nothing: the batch takes
        consecutive ids, its listeners start concurrently (one round
        of loop yields for the whole batch, not one per replica), and
        it joins the active set in id order under one lock
        acquisition.  If any listener fails, every listener the batch
        opened is closed, none of it is registered, its ids stay
        spent, and the error propagates.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        first = self._counter + 1
        self._counter += count
        batch = [
            ReplicaBackend(
                self.config,
                f"r-{first + offset}",
                clock=self._clock,
                instruments=self.instruments,
                trust=self.trust,
            )
            for offset in range(count)
        ]
        try:
            for result in await asyncio.gather(
                *(backend.start(port=0) for backend in batch),
                return_exceptions=True,
            ):
                if isinstance(result, BaseException):
                    raise result
        except BaseException:
            for backend in batch:
                await backend.stop()
            raise
        async with self._lock:
            for backend in batch:
                self.backends[backend.replica_id] = backend
                self._active[backend.replica_id] = backend
        self.instruments.registry.counter(
            "service_replicas_spawned_total",
            "Backends booted over the pool's lifetime.",
        ).inc(count)
        return batch

    async def start(self) -> list[ReplicaBackend]:
        """Boot the initial fleet of ``n_replicas`` backends."""
        return await self.spawn(self.config.n_replicas)

    async def retire(self, replica_id: str) -> None:
        """Quiesce and close one backend; its port goes dark."""
        async with self._lock:
            backend = self.backends.pop(replica_id, None)
            if backend is None:
                return
            self._active.pop(replica_id, None)
            self.retired[replica_id] = backend
        backend.quiesce()
        await backend.stop()
        self.instruments.registry.counter(
            "service_replicas_retired_total",
            "Backends retired (their ports went dark).",
        ).inc()

    async def substitute(self, replica_ids: list[str]) -> list[ReplicaBackend]:
        """Replace each named replica with a fresh-port substitute.

        Replacements are booted *before* the old instances close, so the
        pool never serves below capacity mid-shuffle.
        """
        replacements = await self.spawn(len(replica_ids))
        for replica_id in replica_ids:
            await self.retire(replica_id)
        return replacements

    async def stop(self) -> None:
        """Close every live backend (shutdown path)."""
        for replica_id in list(self.backends):
            await self.retire(replica_id)

    # ------------------------------------------------------------------
    def active(self) -> list[ReplicaBackend]:
        """Live backends in id order (O(1) index, O(P) copy)."""
        return list(self._active.values())

    def attacked(self) -> list[ReplicaBackend]:
        """Live backends currently reporting saturation."""
        return [b for b in self.active() if b.attacked()]

    def get(self, replica_id: str) -> ReplicaBackend | None:
        return self.backends.get(replica_id)

    @property
    def n_active(self) -> int:
        return len(self._active)

    def snapshot(self) -> list[dict[str, object]]:
        return [b.snapshot() for b in self.backends.values()]
