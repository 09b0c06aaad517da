"""The live coordinator: assignment, control channel, shuffle paths.

The decision itself (the carried posterior, the plan width, the
quarantine rule) is tested without a pool in ``tests/core/test_policy.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.service import ServiceConfig, ServiceCoordinator
from repro.trust import make_backend


def _point_mass(coordinator: ServiceCoordinator, bots: int, n: int) -> None:
    """Plant a posterior certain of ``bots`` bots among ``n`` clients."""
    policy = coordinator.policy
    policy.log_posterior = np.where(np.arange(n + 1) == bots, 0.0, -np.inf)
    policy.belief = bots


def _saturate(backend, client_id: str = "bot-0", requests: int = 20) -> None:
    """Drive a backend's throttle ratio over the detection threshold."""
    backend.admit(client_id)
    for seq in range(requests):
        backend._answer([f"REQ {client_id} {seq}"])
    assert backend.attacked()


class TestAssignment:
    def test_least_loaded_then_sticky(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.pool.start()
            try:
                first = [
                    coordinator.assign(f"u-{i}").replica_id for i in range(6)
                ]
                again = coordinator.assign("u-0").replica_id
                return first, again
            finally:
                await coordinator.pool.stop()

        first, again = asyncio.run(scenario())
        # Six clients over three replicas: perfectly balanced.
        assert sorted(first.count(r) for r in set(first)) == [2, 2, 2]
        assert again == first[0]  # sticky on re-query

    def test_reassigns_when_home_replica_is_gone(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.pool.start()
            try:
                home = coordinator.assign("u-0").replica_id
                await coordinator.pool.retire(home)
                return home, coordinator.assign("u-0").replica_id
            finally:
                await coordinator.pool.stop()

        home, rehomed = asyncio.run(scenario())
        assert rehomed != home

    def test_late_joiner_is_not_bound_to_a_quarantine_replica(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.pool.start()
            try:
                for i in range(6):
                    coordinator.assign(f"u-{i}")
                # One pinned bot: the least-loaded active replica.
                pen = await coordinator.pool.spawn()
                pen.admit("bot-0")
                coordinator.assignments["bot-0"] = pen.replica_id
                coordinator.quarantine_replicas.add(pen.replica_id)
                return pen.replica_id, coordinator.assign("late").replica_id
            finally:
                await coordinator.pool.stop()

        pen, late = asyncio.run(scenario())
        assert late != pen


class TestControlChannel:
    def test_join_where_snapshot_over_tcp(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *coordinator.control_address
                )
                writer.write(b"JOIN u-1\nWHERE u-1\nSNAPSHOT\nNOPE\n")
                await writer.drain()
                lines = [await reader.readline() for _ in range(4)]
                writer.close()
                return lines
            finally:
                await coordinator.stop()

        join, where, snapshot, bad = asyncio.run(scenario())
        parts = join.decode().split()
        assert parts[0] == "ASSIGN" and parts[1] == "u-1"
        assert where == join  # sticky: same address on re-query
        state = json.loads(snapshot)
        assert state["n_active"] == 3
        assert state["shuffles_completed"] == 0
        assert bad == b"ERR malformed\n"


class TestPlanCells:
    """The plan cache computes cells when rounds ask, not at boot."""

    def test_fresh_boot_computes_no_cell_and_starts_no_thread(self, config):
        async def scenario():
            before = set(threading.enumerate())
            coordinator = ServiceCoordinator(config)
            await coordinator.start()
            try:
                started = set(threading.enumerate()) - before
                return coordinator.plan_cache, started
            finally:
                await coordinator.stop()

        cache, started = asyncio.run(scenario())
        assert (cache.cells, cache.hits, cache.fallbacks) == (0, 0, 0)
        assert not started  # no default-executor worker

    def test_restored_population_cells_precede_the_first_round(
        self, config, tmp_path
    ):
        spec = f"sqlite:{tmp_path / 'state.db'}"
        population = 60
        previous = make_backend(spec)
        previous.put_many(
            "bindings",
            [
                (f"u-{i}", {"replica": f"r-{i % 3 + 1}"})
                for i in range(population)
            ],
        )
        previous.close()
        restarted = dataclasses.replace(config, state_backend=spec)

        async def scenario():
            coordinator = ServiceCoordinator(restarted)
            await coordinator.start()
            try:
                return (
                    coordinator.restored,
                    len(coordinator.assignments),
                    coordinator.shuffles_completed,
                    coordinator.plan_cache,
                )
            finally:
                await coordinator.stop()

        restored, bound, shuffles, cache = asyncio.run(scenario())
        assert restored and bound == population and shuffles == 0
        cells = set(cache._plans)
        assert cells
        # Every lookup the restored population can issue is served
        # from a cell computed before serving began.
        for n_clients in range(1, population + 1):
            for n_bots in range(n_clients + 1):
                cache.lookup(n_clients, n_bots)
        assert set(cache._plans) == cells


class TestShuffle:
    def _boot(self, config) -> ServiceCoordinator:
        # Long detection interval: the loop stays out of the way and the
        # tests drive _shuffle directly.
        quiet = ServiceConfig(
            n_replicas=config.n_replicas,
            telemetry_port=None,
            bucket_rate=config.bucket_rate,
            bucket_burst=config.bucket_burst,
            saturation_window=config.saturation_window,
            overload_ratio=config.overload_ratio,
            min_window_events=config.min_window_events,
            detection_interval=60.0,
            plan_client_grid=config.plan_client_grid,
            plan_bot_grid=config.plan_bot_grid,
            seed=config.seed,
        )
        return ServiceCoordinator(quiet)

    def test_shuffle_rebinds_every_client_and_retires_the_target(
        self, config
    ):
        async def scenario():
            coordinator = self._boot(config)
            await coordinator.start()
            try:
                for i in range(8):
                    coordinator.assign(f"u-{i}")
                victim_id = coordinator.assignments["u-0"]
                victim = coordinator.pool.get(victim_id)
                moved = sorted(victim.whitelist)
                _saturate(victim)
                await coordinator._shuffle([victim])
                record = coordinator.shuffles[0]
                return {
                    "victim": victim_id,
                    "moved": moved,
                    "record": record,
                    "victim_active": victim.is_active,
                    "assignments": dict(coordinator.assignments),
                    "n_active": coordinator.pool.n_active,
                }
            finally:
                await coordinator.stop()

        out = asyncio.run(scenario())
        record = out["record"]
        # "bot-0" rode along in the victim's whitelist.
        assert record.n_clients == len(out["moved"]) + 1
        assert sum(record.group_sizes) == record.n_clients
        assert record.attacked_replicas == (out["victim"],)
        assert not out["victim_active"]
        for client in out["moved"]:
            assert out["assignments"][client] in record.new_replicas
        # One retired, len(nonempty sizes) spawned: pool grows elastically.
        assert out["n_active"] == 3 - 1 + len(record.new_replicas)

    def test_endgame_dispersion_goes_singleton(self, config):
        async def scenario():
            coordinator = self._boot(config)
            await coordinator.start()
            try:
                victim = coordinator.pool.get("r-1")
                for i in range(4):
                    victim.admit(f"u-{i}")
                    coordinator.assignments[f"u-{i}"] = "r-1"
                _saturate(victim, client_id="u-0")
                _point_mass(coordinator, bots=2, n=4)
                await coordinator._shuffle([victim])
                return coordinator.shuffles[0], coordinator.plan_cache
            finally:
                await coordinator.stop()

        record, cache = asyncio.run(scenario())
        # 4 clients, 2 believed bots: greedy at width N gives one
        # singleton round that separates them exactly.
        assert record.estimator == "carried"  # outside any earlier plan
        assert record.estimated_bots == 2
        assert record.group_sizes == (1, 1, 1, 1)
        assert record.algorithm == "greedy"
        assert cache.hits + cache.fallbacks == 0  # not on the live path

    def test_hopeless_plan_quarantines_instead_of_shuffling(self, config):
        async def scenario():
            coordinator = self._boot(config)
            await coordinator.start()
            try:
                victim = coordinator.pool.get("r-1")
                for i in range(4):
                    victim.admit(f"u-{i}")
                    coordinator.assignments[f"u-{i}"] = "r-1"
                _saturate(victim, client_id="u-0")
                _point_mass(coordinator, bots=4, n=4)  # everyone a bot
                await coordinator._shuffle([victim])
                return (
                    coordinator.quarantine_replicas,
                    coordinator.shuffles_completed,
                    victim.is_active,
                )
            finally:
                await coordinator.stop()

        quarantined, shuffles, still_active = asyncio.run(scenario())
        # E[S] = 0: no shuffle can save anyone, leave the bots flooding.
        assert quarantined == {"r-1"}
        assert shuffles == 0
        assert still_active  # the quarantine replica keeps absorbing

    def test_observation_counts_outside_the_quarantine_set(self, config):
        async def scenario():
            coordinator = self._boot(config)
            await coordinator.start()
            try:
                victim = coordinator.pool.get("r-1")
                for i in range(4):
                    victim.admit(f"u-{i}")
                    coordinator.assignments[f"u-{i}"] = "r-1"
                _saturate(victim, client_id="u-0")
                # A suspect pinned by an earlier quarantine, not here.
                coordinator.quarantine_replicas.add("r-3")
                coordinator.suspected_bots.add("bot-elsewhere")
                seen = []
                believe = coordinator.policy.believe
                coordinator.policy.believe = lambda o: (
                    seen.append(o), believe(o)
                )[1]
                await coordinator._shuffle([victim])
                return seen
            finally:
                await coordinator.stop()

        (seen,) = asyncio.run(scenario())
        assert seen.n_clients == 4
        assert seen.demonstrated_bots == 0  # no suspect among these 4
        assert seen.n_replicas == 2  # r-1 and r-2; r-3 is quarantined

    def test_empty_attacked_replica_is_substituted(self, config):
        async def scenario():
            coordinator = self._boot(config)
            await coordinator.start()
            try:
                victim = coordinator.pool.get("r-2")
                _saturate(victim)
                victim.evict("bot-0")  # flooded yet hosts nobody
                await coordinator._shuffle([victim])
                return coordinator.shuffles[0], coordinator.pool.n_active
            finally:
                await coordinator.stop()

        record, n_active = asyncio.run(scenario())
        assert record.n_clients == 0
        assert record.group_sizes == ()
        assert len(record.new_replicas) == 1
        assert n_active == 3  # straight one-for-one substitution


class TestDetectLoopCrashSurface:
    """A detect-loop death must be observable, not silently swallowed.

    The loop runs as a fire-and-forget task; before the done-callback
    was wired, an exception in a sweep vanished until process exit and
    the coordinator kept claiming to run.
    """

    def test_sweep_exception_is_recorded_and_stops_the_service(
        self, config
    ):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.start()
            try:
                def boom():
                    raise RuntimeError("sweep exploded")

                coordinator.pool.attacked = boom  # type: ignore[assignment]
                for _ in range(200):
                    await asyncio.sleep(config.detection_interval)
                    if coordinator.detect_error is not None:
                        break
                return coordinator.detect_error, coordinator._running
            finally:
                await coordinator.stop()

        error, running = asyncio.run(scenario())
        assert isinstance(error, RuntimeError)
        assert str(error) == "sweep exploded"
        assert not running  # the coordinator no longer claims liveness

    def test_clean_stop_records_no_error(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.start()
            await asyncio.sleep(config.detection_interval * 2)
            await coordinator.stop()
            return coordinator.detect_error

        assert asyncio.run(scenario()) is None


class TestQuarantineConvergence:
    def test_requires_calm_streak(self, config):
        coordinator = ServiceCoordinator(config)
        assert not coordinator.quarantined  # nothing quarantined yet
        coordinator.quarantine_replicas.add("r-1")
        coordinator._calm_sweeps = coordinator.CALM_SWEEPS - 1
        assert not coordinator.quarantined  # streak not long enough
        coordinator._calm_sweeps = coordinator.CALM_SWEEPS
        assert coordinator.quarantined

    def test_detect_loop_quarantines_a_lone_insider(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config)
            await coordinator.start()
            try:
                victim = coordinator.assign("bot-0")
                _saturate(victim, requests=40)
                for _ in range(200):
                    await asyncio.sleep(config.detection_interval)
                    if coordinator.quarantined:
                        break
                return (
                    coordinator.quarantined,
                    coordinator.quarantine_replicas,
                    coordinator.snapshot(),
                    coordinator.plan_cache,
                )
            finally:
                await coordinator.stop()

        quarantined, replicas, snapshot, cache = asyncio.run(scenario())
        assert quarantined
        assert len(replicas) >= 1
        assert snapshot["quarantined"] is True
        assert cache.hits + cache.fallbacks == 0  # greedy plans the rounds

    def test_budget_exhaustion_flag(self, config):
        async def scenario():
            coordinator = ServiceCoordinator(config, max_shuffles=0)
            await coordinator.start()
            try:
                victim = coordinator.assign("bot-0")
                _saturate(victim, requests=40)
                for _ in range(100):
                    await asyncio.sleep(config.detection_interval)
                    if coordinator.budget_exhausted:
                        break
                return (
                    coordinator.budget_exhausted,
                    coordinator.shuffles_completed,
                )
            finally:
                await coordinator.stop()

        exhausted, shuffles = asyncio.run(scenario())
        assert exhausted
        assert shuffles == 0
