"""The integration gate: ``src/repro`` must stay reprolint-clean.

This is the test that makes the invariants real for future PRs: any new
file-rule violation anywhere under ``src/repro`` fails the suite with the
rule ID and exact location, and the per-rule canary checks prove the
linter would actually catch a regression of each class (a silently
broken rule would otherwise let the clean-tree assertion rot).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import lint, render_text
from repro.devtools.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: one minimal violating module per rule — the canary set
CANARIES = {
    "R1": "from __future__ import annotations\nimport numpy as np\n"
    "rng = np.random.default_rng()\n",
    "R3": "from __future__ import annotations\n"
    "def f(p: float) -> bool:\n    return p == 0.25\n",
}


def test_src_repro_is_project_clean():
    """Every file and whole-program rule must hold on the tree, with
    nothing excused out of line."""
    report = lint([SRC])
    assert report.files_checked > 50
    assert {r.rule_id for r in report.rules} == {
        "R1", "R3",
        "P1", "P2", "P3", "P5", "P6", "P9", "P10", "P13",
    }
    assert report.ok, "\n" + render_text(report)


@pytest.mark.parametrize("rule_id", sorted(CANARIES))
def test_new_violation_fails_with_rule_id_and_location(
    rule_id, tmp_path, capsys
):
    """Dropping one violating file into a copy of core/ must fail."""
    tree = tmp_path / "repro" / "core"
    tree.mkdir(parents=True)
    bad = tree / "freshly_broken.py"
    bad.write_text(CANARIES[rule_id], encoding="utf-8")
    exit_code = main([str(tmp_path / "repro")])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert rule_id in out
    line = next(l for l in out.splitlines() if rule_id in l)
    assert "freshly_broken.py" in line
    # path:line:col prefix present
    assert line.split(f" {rule_id} ")[0].count(":") >= 2


def test_console_entry_point_runs_against_src():
    """`repro-lint` behaves identically when invoked as a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.devtools.cli", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 violations" in result.stdout


def test_mypy_strict_core_is_clean():
    """Gate: runs only where mypy is installed (CI installs it)."""
    pytest.importorskip("mypy")
    if shutil.which("mypy") is None:  # pragma: no cover
        pytest.skip("mypy module present but no executable")
    result = subprocess.run(
        ["mypy", "--strict", "src/repro/core"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
