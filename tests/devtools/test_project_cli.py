"""CLI behaviour of ``repro-lint --project``: rule selection, graph
export, ``--changed``, and the SARIF code-scanning reporter."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import lint_project, render_json, render_sarif
from repro.devtools.cli import main

CLEAN_COMP = """\
class Comp:
    def __init__(self, sim):
        self.sim = sim
        self.peers: set[str] = set()

    def kick(self):
        for peer in sorted(self.peers):
            self.sim.schedule(1.0, peer)
"""

DIRTY_COMP = CLEAN_COMP.replace("sorted(self.peers)", "self.peers")


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    for rel in (
        "repro/__init__.py",
        "repro/core/__init__.py",
        "repro/cloudsim/__init__.py",
    ):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("", encoding="utf-8")
    (tmp_path / "repro/cloudsim/comp.py").write_text(
        DIRTY_COMP, encoding="utf-8"
    )
    return tmp_path / "repro"


def test_project_flag_runs_p_rules(tree, capsys):
    # Selecting a project rule without --project is a usage error: the
    # file-mode registry does not know the P-series.
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "P3", str(tree)])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert main(["--project", "--select", "P3", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "P3" in out
    assert "comp.py:7" in out


def test_json_output_marks_project_scope(tree, capsys):
    assert main(
        ["--project", "--select", "P3", "--format", "json", str(tree)]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    scopes = {r["id"]: r["scope"] for r in payload["rules"]}
    assert scopes["P3"] == "project"
    assert [v["rule"] for v in payload["violations"]] == ["P3"]


def test_sarif_output_is_valid_code_scanning_payload(tree, capsys):
    assert main(
        ["--project", "--select", "P3", "--format", "sarif", str(tree)]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    assert {r["id"] for r in driver["rules"]} == {"P3"}
    (result,) = run["results"]
    assert result["ruleId"] == "P3"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("comp.py")
    assert location["region"]["startLine"] == 7
    assert location["region"]["startColumn"] >= 1  # SARIF is 1-based


def test_render_sarif_anchors_uris_at_the_given_base(tree, tmp_path):
    report = lint_project([tree], select=["P3"])
    payload = json.loads(render_sarif(report, base=tmp_path))
    (result,) = payload["runs"][0]["results"]
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]
    assert uri["uri"] == "repro/cloudsim/comp.py"  # repo-relative POSIX


def test_graph_dot_export(tree, tmp_path, capsys):
    destination = tmp_path / "imports.dot"
    assert main(["--graph", str(destination), str(tree)]) == 0
    dot = destination.read_text(encoding="utf-8")
    assert dot.startswith("digraph imports")
    assert "repro.cloudsim.comp" in dot


def test_graph_json_export(tree, tmp_path, capsys):
    destination = tmp_path / "imports.json"
    assert main(["--graph", str(destination), str(tree)]) == 0
    payload = json.loads(destination.read_text(encoding="utf-8"))
    assert {"modules", "edges", "layer_edge_counts", "contract"} <= set(
        payload
    )


def test_graph_composes_with_project_lint(tree, tmp_path, capsys):
    destination = tmp_path / "imports.dot"
    assert main(
        ["--project", "--select", "P3", "--graph", str(destination),
         str(tree)]
    ) == 1  # graph written AND the P3 violation still fails the run
    assert destination.exists()


def test_list_rules_includes_project_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id, slug in [
        ("P1", "import-layering"),
        ("P2", "rng-provenance"),
        ("P3", "unordered-iteration"),
        ("P4", "no-wall-clock"),
        ("P5", "dead-export"),
    ]:
        assert rule_id in out
        assert slug in out
        assert "[project]" in out


def test_project_mode_without_package_root_reports(tmp_path, capsys):
    stray = tmp_path / "stray.py"
    stray.write_text(
        '"""Doc."""\n\nfrom __future__ import annotations\n\nx = 1\n',
        encoding="utf-8",
    )
    code = main(["--project", str(stray)])
    out = capsys.readouterr().out
    assert code == 1
    assert "PROJECT" in out


def test_project_report_carries_stage_timings(tree):
    report = lint_project([tree], select=["P3", "P11"])
    for key in ("file_rules", "program_index", "numeric_index",
                "pass_P3", "pass_P11"):
        assert key in report.timings
        assert report.timings[key] >= 0.0
    assert json.loads(render_json(report))["timings"] == report.timings


def test_numeric_index_timing_only_for_numeric_passes(tree):
    report = lint_project([tree], select=["P3"])
    assert "numeric_index" not in report.timings
    assert "pass_P3" in report.timings


def test_json_rules_carry_suppression_help(tree, capsys):
    assert main(
        ["--project", "--select", "P3", "--format", "json", str(tree)]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    (rule,) = payload["rules"]
    assert "# reprolint: disable=P3" in rule["suppression"]


def test_sarif_help_includes_pass_specific_markers(tree, capsys):
    assert main(
        ["--project", "--select", "P6,P11,P12", "--format", "sarif",
         str(tree)]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    helps = {
        r["id"]: r["help"]["text"]
        for r in payload["runs"][0]["tool"]["driver"]["rules"]
    }
    assert "# event-loop-safe: <reason>" in helps["P6"]
    assert "# domain: <log|linear> <reason>" in helps["P11"]
    assert "# domain: <log|linear> <reason>" in helps["P12"]
    assert "# reprolint: disable=P11" in helps["P11"]


# ----------------------------------------------------------------------
# --changed incremental mode
# ----------------------------------------------------------------------
R8_VIOLATION = (
    "from __future__ import annotations\n\n\n"
    "def f() -> None:\n    print('x')\n"
)


def _git(cwd: Path, *args: str) -> None:
    import subprocess

    subprocess.run(
        [
            "git",
            "-c", "user.email=ci@example.invalid",
            "-c", "user.name=ci",
            *args,
        ],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def git_tree(tree: Path, tmp_path: Path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "--no-verify", "-m", "seed")
    return tree


def test_changed_lints_only_modified_files(git_tree, tmp_path, capsys):
    # Two violating files: one committed (unchanged), one fresh.
    steady = git_tree / "core" / "steady.py"
    steady.write_text(R8_VIOLATION, encoding="utf-8")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "--no-verify", "-m", "add steady")
    touched = git_tree / "core" / "touched.py"
    touched.write_text(R8_VIOLATION, encoding="utf-8")
    assert main(["--changed=HEAD", "--select", "R8", str(git_tree)]) == 1
    out = capsys.readouterr().out
    assert "touched.py" in out
    assert "steady.py" not in out
    assert "1 files" in out


def test_changed_project_scope_reports_only_changed_files(
    git_tree, capsys
):
    # comp.py's P3 violation is committed and untouched; an identical
    # fresh violation appears in a new file.  Only the new one reports,
    # even though the whole-tree index saw both.
    fresh = git_tree / "cloudsim" / "fresh.py"
    fresh.write_text(
        DIRTY_COMP.replace("class Comp", "class Fresh"), encoding="utf-8"
    )
    assert main(
        ["--project", "--select", "P3", "--changed=HEAD", str(git_tree)]
    ) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out
    assert "comp.py" not in out


def test_changed_with_no_changes_exits_zero(git_tree, capsys):
    assert main(["--changed=HEAD", "--select", "R8", str(git_tree)]) == 0
    assert "0 violations in 0 files" in capsys.readouterr().out


def test_changed_with_unknown_ref_is_usage_error(git_tree):
    with pytest.raises(SystemExit) as excinfo:
        main(["--changed=not-a-ref", str(git_tree)])
    assert excinfo.value.code == 2
