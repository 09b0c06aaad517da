"""Tests for benign clients, persistent bots and on-off bots."""

from __future__ import annotations

import pytest

from repro.cloudsim.botnet import Botnet
from repro.cloudsim.clients import (
    ATTACK_WORK,
    BenignClient,
    OnOffBot,
    PersistentBot,
)
from repro.cloudsim.loadbalancer import LoadBalancer
from repro.cloudsim.network import Endpoint
from repro.cloudsim.system import CloudConfig, CloudContext


@pytest.fixture
def ctx():
    config = CloudConfig(think_time=0.5, reveal_delay=0.2)
    context = CloudContext(config, seed=0)
    for domain in context.domains:
        balancer = LoadBalancer(context, domain)
        context.balancers[domain] = balancer
        context.dns.register(balancer)
    context.coordinator.new_replica("cloud-0", activate_now=True)
    context.coordinator.new_replica("cloud-1", activate_now=True)
    return context


class TestBenignClient:
    def test_join_assigns_replica(self, ctx):
        client = BenignClient(ctx, "u1")
        client.join()
        ctx.sim.run_until(2.0)
        assert client.replica_endpoint is not None
        replica = ctx.replica_at(client.replica_endpoint)
        assert "u1" in replica.whitelist

    def test_requests_succeed_on_healthy_replica(self, ctx):
        client = BenignClient(ctx, "u1")
        client.join()
        ctx.sim.run_until(30.0)
        assert client.stats.requests_sent > 10
        assert client.stats.success_ratio > 0.95
        assert client.stats.mean_latency > 0

    def test_redirect_switches_replica(self, ctx):
        client = BenignClient(ctx, "u1")
        client.join()
        ctx.sim.run_until(2.0)
        new_endpoint = Endpoint("cloud-1", "replica-2")
        client.receive_redirect(new_endpoint)
        assert client.replica_endpoint == new_endpoint
        assert client.stats.migrations == 1

    def test_rejoins_when_replica_retired(self, ctx):
        client = BenignClient(ctx, "u1")
        client.join()
        ctx.sim.run_until(2.0)
        old = ctx.replica_at(client.replica_endpoint)
        ctx.retire_replica(old)
        ctx.sim.run_until(20.0)
        assert client.stats.rejoins >= 1
        assert client.replica_endpoint is not None
        assert client.replica_endpoint.address != old.endpoint.address

    def test_leave_evicts(self, ctx):
        client = BenignClient(ctx, "u1")
        client.join()
        ctx.sim.run_until(2.0)
        replica = ctx.replica_at(client.replica_endpoint)
        assert "u1" in ctx.sketch_keys
        client.leave()
        assert "u1" not in replica.whitelist
        assert "u1" not in ctx.sketch_keys
        sent_before = client.stats.requests_sent
        ctx.sim.run_until(20.0)
        assert client.stats.requests_sent == sent_before

    def test_retry_when_no_replicas(self):
        config = CloudConfig(join_retry_delay=0.5)
        context = CloudContext(config, seed=0)
        balancer = LoadBalancer(context, context.domains[0])
        context.balancers[context.domains[0]] = balancer
        context.dns.register(balancer)
        client = BenignClient(context, "u1")
        client.join()
        context.sim.run_until(3.0)
        assert client.replica_endpoint is None
        # Replica appears; the retry loop should eventually land.
        context.coordinator.new_replica(context.domains[0],
                                        activate_now=True)
        context.sim.run_until(10.0)
        assert client.replica_endpoint is not None


class TestPersistentBot:
    def test_reveals_assignment_to_botnet(self, ctx):
        botnet = Botnet(ctx, naive_pps=0.0, propagation_delay=0.0)
        bot = PersistentBot(ctx, "b1", botnet)
        bot.join()
        ctx.sim.run_until(5.0)
        assert bot.replica_endpoint is not None
        assert bot.replica_endpoint.address in botnet.hit_list

    def test_reveals_again_after_redirect(self, ctx):
        botnet = Botnet(ctx, naive_pps=0.0, propagation_delay=0.0)
        bot = PersistentBot(ctx, "b1", botnet)
        bot.join()
        ctx.sim.run_until(5.0)
        target = Endpoint("cloud-1", "replica-2")
        bot.receive_redirect(target)
        ctx.sim.run_until(10.0)
        assert "replica-2" in botnet.hit_list

    def test_stale_reveal_suppressed(self, ctx):
        botnet = Botnet(ctx, naive_pps=0.0, propagation_delay=0.0)
        bot = PersistentBot(ctx, "b1", botnet)
        bot.join()
        ctx.sim.run_until(1.0)
        if bot.replica_endpoint is None:
            ctx.sim.run_until(3.0)
        original = bot.replica_endpoint.address
        # Redirect lands before the (exponential) reveal fires: the old
        # address must not be revealed afterwards.
        botnet.hit_list.clear()
        bot.receive_redirect(Endpoint("cloud-1", "replica-2"))
        ctx.sim.run_until(20.0)
        assert original not in botnet.hit_list

    def test_computational_bot_uses_attack_work(self, ctx):
        botnet = Botnet(ctx, naive_pps=0.0)
        bot = PersistentBot(ctx, "b1", botnet, computational=True)
        assert bot._request_work == ATTACK_WORK


class TestOnOffBot:
    def test_goes_quiet_after_redirect(self, ctx):
        botnet = Botnet(ctx, naive_pps=0.0, propagation_delay=0.0)
        bot = OnOffBot(ctx, "b1", botnet, off_duration=50.0)
        bot.join()
        ctx.sim.run_until(5.0)
        botnet.hit_list.clear()
        bot.receive_redirect(Endpoint("cloud-1", "replica-2"))
        ctx.sim.run_until(20.0)  # still inside the off window
        assert "replica-2" not in botnet.hit_list

    def test_resumes_after_off_period(self, ctx):
        botnet = Botnet(ctx, naive_pps=0.0, propagation_delay=0.0)
        bot = OnOffBot(ctx, "b1", botnet, off_duration=10.0)
        bot.join()
        ctx.sim.run_until(5.0)
        botnet.hit_list.clear()
        bot.receive_redirect(Endpoint("cloud-1", "replica-2"))
        ctx.sim.run_until(40.0)  # past the off window
        assert "replica-2" in botnet.hit_list
