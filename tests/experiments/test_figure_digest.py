"""Golden digests of the Monte-Carlo figure tables.

Each entry is the SHA-256 of one rendered ``--quick`` table, exactly as
``python -m repro.experiments <name> --quick`` prints it (the
``[… finished in … s]`` line aside).  The digests pin every number of
Figures 8-10, the headline claim and the ablations, and with them the
grid runner's seed contract: every cell of ``run_scenario_grid`` draws
from the base ``SeedSequence(seed)``.  Seeding cell ``i`` with
``spawn_key=(i,)``, or sharing one ``SeedSequence`` object across cells
(``run_scenario`` spawns its repetitions from it, which advances its
counter), changes the tables and fails this test.

Regenerate only on a deliberate change of what the figures report.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.runner import EXPERIMENTS

GOLDEN_SHA256 = {
    "fig8": "4ee7891cda6fb70a87d93d54c4c3e1a3fdcd3e947825975143c5b9e87bc00d02",
    "fig9": "ecf584a8bd65065b8f4a73c656e9e7ffd1d1972d1e6e8d7afcd987890bc6c37f",
    "fig10": "7ec5ebc4d5f838df257ce3c7031326d783225154df955c8cbdc8c4dba7a54054",
    "headline": (
        "3b5b47ba39df8c188b042e666480b133e7088feaefad797c22258585332daa92"
    ),
    "ablations": (
        "2e956b0b7003c0d81b53ccfc32b91812a31c1166d7b8b1039dff28936c074ffa"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_quick_table_digest(name):
    table, _ = EXPERIMENTS[name](True, False, 1)
    digest = hashlib.sha256(table.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[name], table
