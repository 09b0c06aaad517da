"""Tests for replica servers: whitelists, capacity, redirects."""

from __future__ import annotations

import pytest

from repro.cloudsim.network import Endpoint
from repro.cloudsim.replica import ReplicaServer, ReplicaState
from repro.cloudsim.system import CloudConfig, CloudContext
from repro.detect import SketchWindow


@pytest.fixture
def ctx():
    return CloudContext(CloudConfig(), seed=0)


@pytest.fixture
def replica(ctx):
    server = ReplicaServer(
        ctx,
        Endpoint("cloud-0", "replica-t"),
        net_capacity=1000.0,
        cpu_capacity=100.0,
    )
    server.activate()
    return server


class TestLifecycle:
    def test_boots_inactive(self, ctx):
        server = ReplicaServer(ctx, Endpoint("cloud-0", "r"), 10, 10)
        assert server.state is ReplicaState.BOOTING
        assert not server.is_active
        server.activate()
        assert server.is_active

    def test_retire_clears_state(self, replica):
        replica.admit("c1", object())
        replica.receive_flood(500)
        replica.retire()
        assert replica.state is ReplicaState.RETIRED
        assert replica.n_clients == 0
        assert replica.net_utilization() == 0.0

    def test_retired_replica_null_routes_floods(self, replica):
        replica.retire()
        replica.receive_flood(10_000)
        assert replica.stats.flood_packets == 0.0


class TestWhitelist:
    def test_unwhitelisted_request_rejected(self, replica):
        outcomes = []
        replica.handle_request("stranger", 1.0,
                               lambda ok, t: outcomes.append(ok))
        assert outcomes == [False]
        assert replica.stats.requests_rejected == 1

    def test_whitelisted_request_served(self, replica):
        replica.admit("c1", object())
        outcomes = []
        replica.handle_request("c1", 1.0,
                               lambda ok, t: outcomes.append((ok, t)))
        assert outcomes[0][0] is True
        assert outcomes[0][1] > 0
        assert replica.stats.requests_served == 1

    def test_evict_removes_whitelist(self, replica):
        replica.admit("c1", object())
        replica.evict("c1")
        outcomes = []
        replica.handle_request("c1", 1.0,
                               lambda ok, t: outcomes.append(ok))
        assert outcomes == [False]

    def test_inactive_replica_serves_nothing(self, ctx):
        server = ReplicaServer(ctx, Endpoint("cloud-0", "r"), 10, 10)
        server.admit("c1", object())
        outcomes = []
        server.handle_request("c1", 1.0, lambda ok, t: outcomes.append(ok))
        assert outcomes == [False]


class TestSketchKey:
    """The whitelist entry *is* the client's sketch key: made by the
    replica's own window at admission, gone with the entry."""

    def test_admit_stores_the_windows_positions(self, replica):
        replica.admit("c1", object())
        assert replica.whitelist["c1"] == replica.traffic.positions("c1")
        assert list(replica.whitelist) == ["c1"]
        assert replica.n_clients == 1

    @pytest.mark.parametrize("leave", ["evict", "retire", "fail"])
    def test_every_exit_drops_the_entry(self, replica, leave):
        replica.admit("c1", object())
        replica.admit("c2", object())
        if leave == "evict":
            replica.evict("c1")
            assert list(replica.whitelist) == ["c2"]
            assert replica.n_clients == 1
        else:
            getattr(replica, leave)()
            assert replica.whitelist == {}
            assert replica.n_clients == 0

    def test_moved_client_is_keyed_by_its_new_replica(self, replica):
        # Positions index one (width, depth, seed) family only; a
        # differently sized destination must hash the client again.
        wide = ReplicaServer(
            CloudContext(CloudConfig(detect_epsilon=0.001), seed=0),
            Endpoint("cloud-0", "replica-wide"), 1000.0, 100.0,
        )
        wide.activate()
        replica.admit("c1", object())
        replica.evict("c1")
        wide.admit("c1", object())
        assert "c1" not in replica.whitelist
        assert wide.whitelist["c1"] == wide.traffic.positions("c1")
        assert wide.whitelist["c1"] != replica.traffic.positions("c1")
        outcomes = []
        wide.handle_request("c1", 1.0, lambda ok, t: outcomes.append(ok))
        assert outcomes == [True]
        assert wide.traffic.estimate(wide.ctx.now, "c1") == 1

    def test_stranger_is_rejected_and_still_recorded_by_key(self, replica):
        for _ in range(3):
            replica.handle_request("stranger", 1.0, lambda ok, t: None)
        now = replica.ctx.now
        assert replica.stats.requests_rejected == 3
        assert replica.traffic.counts(now) == (3, 3)
        assert replica.traffic.estimate(now, "stranger") == 3
        assert [h.key for h in replica.traffic.heavy_hitters(now)] == [
            "stranger"
        ]
        assert replica.whitelist == {}

    def test_admitted_traffic_lands_where_hashing_would_put_it(self, ctx):
        # Same requests through a replica (held positions) and through
        # a bare window (hashing each key): equal sketch bytes.
        server = ReplicaServer(ctx, Endpoint("cloud-0", "r"), 1e6, 1e6)
        server.activate()
        bare = SketchWindow(
            server.traffic.window, server.traffic.params,
            server.traffic.epochs,
        )
        for i in range(200):
            cid = f"c-{i % 17}"
            server.admit(cid, object())
            server.handle_request(cid, 1.0, lambda ok, t: None)
            bare.record(ctx.now, True, key=cid)
        assert [c.sketch.to_bytes() for c in server.traffic._cells] == [
            c.sketch.to_bytes() for c in bare._cells
        ]
        assert server.traffic.heavy_hitters(ctx.now) == (
            bare.heavy_hitters(ctx.now)
        )


class TestOverload:
    def test_fresh_replica_not_overloaded(self, replica):
        assert not replica.overloaded()
        assert replica.drop_probability() == 0.0

    def test_flood_saturates_network(self, replica):
        # Dump far more than a second's capacity instantaneously.
        replica.receive_flood(50_000)
        assert replica.net_utilization() > 1.0
        assert replica.overloaded()
        assert replica.drop_probability() > 0.5

    def test_expensive_requests_saturate_cpu(self, ctx, replica):
        replica.admit("bot", object())
        for _ in range(40):
            replica.handle_request("bot", 25.0, lambda ok, t: None)
        assert replica.cpu_utilization() > 1.0
        assert replica.overloaded()

    def test_load_decays_over_time(self, ctx, replica):
        replica.receive_flood(50_000)
        high = replica.net_utilization()
        ctx.sim.run_until(60.0)
        assert replica.net_utilization() < high / 100

    def test_service_time_inflates_under_load(self, ctx, replica):
        replica.admit("c", object())
        light_times = []
        replica.handle_request("c", 1.0,
                               lambda ok, t: light_times.append(t))
        for _ in range(60):
            replica.cpu_meter.add(ctx.now, 25.0)
        heavy_times = []
        replica.handle_request("c", 1.0,
                               lambda ok, t: heavy_times.append(t))
        if heavy_times and heavy_times[0] > 0:
            assert heavy_times[0] > light_times[0]


class TestRedirects:
    def test_pushes_are_serialized(self, ctx, replica):
        delivered = []
        for position in range(5):
            replica.push_redirect(
                f"c{position}",
                Endpoint("cloud-1", "new"),
                deliver=lambda cid, ep: delivered.append((ctx.now, cid)),
                position=position,
            )
        ctx.sim.run_until(30.0)
        assert len(delivered) == 5
        times = [t for t, _ in delivered]
        assert times == sorted(times)
        assert replica.stats.redirects_sent == 5

    def test_overload_slows_pushes(self, ctx):
        cfg = CloudConfig()
        quiet_ctx = CloudContext(cfg, seed=1)
        quiet = ReplicaServer(
            quiet_ctx, Endpoint("cloud-0", "q"), 1000.0, 100.0
        )
        quiet.activate()
        busy_ctx = CloudContext(cfg, seed=1)
        busy = ReplicaServer(
            busy_ctx, Endpoint("cloud-0", "b"), 1000.0, 100.0
        )
        busy.activate()
        busy.receive_flood(1_000_000)

        quiet_times, busy_times = [], []
        for position in range(10):
            quiet.push_redirect(
                f"c{position}", Endpoint("cloud-1", "n"),
                lambda cid, ep: quiet_times.append(quiet_ctx.now),
                position,
            )
            busy.push_redirect(
                f"c{position}", Endpoint("cloud-1", "n"),
                lambda cid, ep: busy_times.append(busy_ctx.now),
                position,
            )
        quiet_ctx.sim.run_until(120.0)
        busy_ctx.sim.run_until(120.0)
        assert max(busy_times) > max(quiet_times)
