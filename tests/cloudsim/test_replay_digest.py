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

from repro.cloudsim import CloudConfig, CloudDefenseSystem
from repro.obs.events import EventLog

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
        system.ctx.attach_tracer(tracer)
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
