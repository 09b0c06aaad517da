"""Acceptance: the live defense quarantines a real insider botnet.

The paper-scale scenario over real localhost sockets: 200 benign
clients and 20 persistent insider bots on a 10-replica pool.  The run
must pin every attack inside the quarantine set within the shuffle
budget predicted by :mod:`repro.analysis.convergence` (with slack), and
leave at least 95% of benign clients on bot-free replicas.
"""

from __future__ import annotations

import os

import pytest

from repro.service import (
    LoadConfig,
    ServiceConfig,
    run_scenario_sync,
    shuffle_budget,
)

pytestmark = [
    pytest.mark.slow,
    # Debug mode traces every callback (~3x loop overhead), which makes
    # the 60 s convergence budget meaningless; the CI debug job covers
    # the unit/integration tier and skips this acceptance scenario.
    pytest.mark.skipif(
        bool(os.environ.get("PYTHONASYNCIODEBUG")),
        reason="asyncio debug instrumentation breaks the live timing budget",
    ),
]


LOAD = LoadConfig(n_benign=200, n_bots=20, seed=11)


def _run(detector: str):
    service_config = ServiceConfig(
        n_replicas=10, seed=7, telemetry_port=None, detector=detector
    )
    return run_scenario_sync(
        service_config, LOAD, duration=60.0, target_fraction=0.95
    )


@pytest.fixture(scope="module")
def exact_report():
    return _run("exact")


def test_live_botnet_is_quarantined_within_budget(exact_report):
    report = exact_report

    # The budget handed to the coordinator is the oracle prediction
    # (14 rounds for 180/20/10 at 95%) with 3x slack.
    assert report.budget == shuffle_budget(200, 20, 10) == 42

    assert report.quarantined, report.snapshot
    assert not report.budget_exhausted
    assert report.shuffles_completed <= report.budget
    assert report.benign_clean_fraction >= 0.95

    # Bots ended up concentrated: far fewer dirty replicas than bots.
    assert 0 < len(report.bot_replicas) <= LOAD.n_bots

    # The flood was real: bots got throttled, which is what made them
    # detectable in the first place.
    assert report.bot_throttled > 0

    # QoS timeline in the shared sim/live schema, with the defense
    # state stamped on each window.
    assert report.windows
    assert report.windows[-1].shuffles_completed == (
        report.shuffles_completed
    )

    snapshot = report.snapshot
    assert snapshot["quarantined"] is True
    assert snapshot["believed_bots"] >= LOAD.n_bots
    assert snapshot["quarantine_replicas"]
    # The plan cache actually served the loop (cache hits at full
    # width, greedy fallbacks on dispersion rounds).
    assert snapshot["plan_cache"]["hits"] + (
        snapshot["plan_cache"]["fallbacks"]
    ) >= report.shuffles_completed
    # Cells are computed on first use: an episode computes only cells
    # it serves.
    assert snapshot["plan_cache"]["cells"] <= snapshot["plan_cache"]["hits"]


def test_sketch_detector_quarantines_the_same_botnet(exact_report):
    """The fixed-memory monitor is a drop-in, not a different defense:
    same quarantine, same round count, same clean bar as the exact run.

    Round counts of two wall-clock runs agree within the spread either
    detector shows alone (10-14 shuffles over 21 pairs on one host;
    equal in 12 of them), so "same" carries that width as tolerance.
    """
    exact = exact_report
    sketch = _run("sketch")
    assert exact.quarantined and sketch.quarantined, sketch.snapshot
    assert not sketch.budget_exhausted
    assert abs(sketch.shuffles_completed - exact.shuffles_completed) <= 4
    assert exact.benign_clean_fraction >= 0.95
    assert sketch.benign_clean_fraction >= 0.95
    assert sketch.snapshot["suspected_bots"]
