"""One DES run, pinned event for event against its parent commit.

``benchmarks/perf``'s ``cloudsim_attack`` gate only checks that three
same-seed repeats agree with *each other*; this pins a run against the
tree it was captured on, floats included.  It is the quick bit-identity
check for any edit under ``repro.cloudsim``: < 1 s, and it fails if an
event moves, reorders, or a meter reading changes in the last bit.  The
hash covers ``repr()`` of floats that pass through libm (``0.5 ** x``,
numpy's lognormal), so a different libm may move it where a different
heap may not.
"""

from __future__ import annotations

import hashlib

from repro.cloudsim import (
    CloudConfig,
    CloudDefenseSystem,
    ReconnaissanceScanner,
)
from repro.obs.events import EventLog
from repro.obs.instruments import Instruments

#: A scaled-down ``cloudsim_attack``, restated here so the pin does not
#: depend on the benchmark's files.
SEED = 7
BENIGN = 600
BOTS = 30
HORIZON = 40.0


class TestReplayDigest:
    #: sha256 captured at commit 20cf6db — before ``Event`` became a
    #: ``[time, seq, action]`` list, ``label=`` was deleted and
    #: ``LoadMeter`` started decaying in one branch.
    GOLDEN = (
        "4e062f7bb7243c1a16da419cf17dc6c867af00c0b5d1af3c8479e74d27fce110"
    )
    EVENTS = 39_904
    SHUFFLES = 2

    def test_run_matches_the_golden_digest(self):
        system = CloudDefenseSystem(CloudConfig(), seed=SEED)
        tracer = EventLog(source="cloudsim")
        system.ctx.attach_instruments(Instruments(events=tracer))
        system.add_benign_clients(BENIGN)
        system.add_persistent_bots(BOTS)
        report = system.run(HORIZON)
        sim = system.ctx.sim
        running = hashlib.sha256()
        running.update(tracer.to_jsonl().encode())
        for value in (
            sim.events_processed,
            report.shuffles,
            repr(sim.now),
            repr(report.benign_mean_latency),
            repr(report.benign_success_overall),
        ):
            running.update(f"{value}\n".encode())
        for client in system.benign:
            running.update(f"{client.stats.total_latency!r}\n".encode())
        assert sim.events_processed == self.EVENTS
        assert report.shuffles == self.SHUFFLES
        assert running.hexdigest() == self.GOLDEN


class TestTrustReconDigest:
    """The branches the run above never reaches, pinned the same way.

    Trust on (``admit_decision`` and ``observe`` on every whitelisted
    request), overload drops from computational insiders, and a scanner
    whose probes land on replicas as strangers: the replica's reject
    and drop exits, plus the scanner's use of ``handle_request``'s
    outcome.  No client is demoted far enough to be gated in 40 sim-s;
    ``test_replica.TestTrustGate`` pins that exit.
    """

    #: sha256 re-pinned when the DES coordinator moved from the moment
    #: estimator to the posterior: the same events, shuffles and plans,
    #: with believed bots 1, 4, 5, 6, 6 where they were 1, 5, 6, 7, 4
    #: (first captured at commit 188936b).
    GOLDEN = (
        "8d5af8e15c4e450440f008fff15d958a688a3fb5ec49c4879299f8a4fdea3f98"
    )
    EVENTS = 36_103
    SHUFFLES = 5

    def test_run_matches_the_golden_digest(self):
        system = CloudDefenseSystem(CloudConfig(trust_enabled=True), seed=11)
        tracer = EventLog(source="cloudsim")
        system.ctx.attach_instruments(Instruments(events=tracer))
        system.add_benign_clients(400)
        system.add_persistent_bots(20, computational=True)
        scanner = ReconnaissanceScanner(system.ctx, pool_size=2_000)
        scanner.start()
        report = system.run(HORIZON)
        sim = system.ctx.sim
        running = hashlib.sha256()
        running.update(tracer.to_jsonl().encode())
        running.update(f"{sim.events_processed}\n{report.shuffles}\n".encode())
        running.update(f"{scanner.report!r}\n".encode())
        for replica in sorted(
            system.ctx.all_replicas(), key=lambda r: r.endpoint.address
        ):
            running.update(
                f"{replica.endpoint.address} {replica.stats!r}\n".encode()
            )
        assert sim.events_processed == self.EVENTS
        assert report.shuffles == self.SHUFFLES
        assert running.hexdigest() == self.GOLDEN
