"""CLI behaviour of ``repro-lint`` on a package: the whole-program
rules, graph export, and the SARIF code-scanning reporter."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import all_rules, lint, render_json, render_sarif
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


def test_package_dir_runs_p_rules(tree, capsys):
    # No flag: a package directory gets the P-series.
    assert main(["--select", "P3", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "P3" in out
    assert "comp.py:7" in out


def test_package_dir_runs_every_registered_rule(tree, capsys):
    assert main(["--format", "json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    scopes = {r["id"]: r["scope"] for r in payload["rules"]}
    assert set(scopes) == {r.rule_id for r in all_rules()}
    assert sorted(i for i, s in scopes.items() if s == "file") == [
        "R1", "R3",
    ]
    assert "P3" in {v["rule"] for v in payload["violations"]}


def test_loose_files_get_only_the_file_rules(tmp_path, capsys):
    stray = tmp_path / "stray.py"
    stray.write_text(
        '"""Doc."""\n\nfrom __future__ import annotations\n\nx = 1\n',
        encoding="utf-8",
    )
    assert main(["--format", "json", str(stray)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in payload["rules"]] == ["R1", "R3"]
    assert payload["files_checked"] == 1


def test_json_output_marks_project_scope(tree, capsys):
    assert main(
        ["--select", "P3", "--format", "json", str(tree)]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    scopes = {r["id"]: r["scope"] for r in payload["rules"]}
    assert scopes["P3"] == "project"
    assert [v["rule"] for v in payload["violations"]] == ["P3"]


def test_sarif_output_is_valid_code_scanning_payload(tree, capsys):
    assert main(
        ["--select", "P3", "--format", "sarif", str(tree)]
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
    report = lint([tree], select=["P3"])
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


def test_graph_export_runs_no_lint(tree, tmp_path, capsys):
    destination = tmp_path / "imports.dot"
    argv = ["--select", "P3", "--graph", str(destination), str(tree)]
    assert main(argv) == 0
    assert destination.exists()
    assert "P3" not in capsys.readouterr().out


def test_unwritable_graph_destination_is_exit_two(tree, tmp_path, capsys):
    destination = tmp_path / "absent" / "imports.dot"
    assert main(["--graph", str(destination), str(tree)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-lint: cannot write")
    assert len(err.strip().splitlines()) == 1


def test_list_rules_includes_project_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id, slug in [
        ("P1", "import-layering"),
        ("P2", "rng-provenance"),
        ("P3", "unordered-iteration"),
        ("P5", "dead-export"),
    ]:
        assert rule_id in out
        assert slug in out
        assert "[project]" in out


def test_each_file_is_parsed_once(tree, monkeypatch):
    from repro.devtools.context import FileContext

    parsed: list[Path] = []
    from_path = FileContext.from_path.__func__
    monkeypatch.setattr(
        FileContext,
        "from_path",
        classmethod(
            lambda cls, path: parsed.append(path.resolve())
            or from_path(cls, path)
        ),
    )
    report = lint([tree])
    assert report.files_checked == 4
    package_files = {p.resolve() for p in tree.rglob("*.py")}
    assert package_files <= set(parsed)
    assert len(parsed) == len(set(parsed))


@pytest.mark.parametrize(
    "select, consumers_parsed",
    [(["P3"], False), (["R1", "P13"], False), (["P5"], True), (None, True)],
)
def test_consumer_dirs_are_parsed_only_for_p5(
    tree, monkeypatch, select, consumers_parsed
):
    from repro.devtools.context import FileContext

    consumer = tree.parent / "tests" / "test_comp.py"
    consumer.parent.mkdir()
    consumer.write_text("from repro.cloudsim import comp\n")
    parsed: list[Path] = []
    from_path = FileContext.from_path.__func__
    monkeypatch.setattr(
        FileContext,
        "from_path",
        classmethod(
            lambda cls, path: parsed.append(path.resolve())
            or from_path(cls, path)
        ),
    )
    lint([tree], select=select)
    assert (consumer.resolve() in parsed) == consumers_parsed


def test_unparsable_package_file_is_a_parse_violation(tree, capsys):
    (tree / "core" / "broken.py").write_text("def f(:\n", encoding="utf-8")
    assert main(["--select", "R1", str(tree)]) == 1
    assert "broken.py:1:0: PARSE could not parse" in capsys.readouterr().out
    report = lint([tree], select=["P3"])
    assert [v.rule_id for v in report.violations] == ["P3", "PARSE"]


def test_project_report_carries_stage_timings(tree):
    report = lint([tree], select=["P3", "P13"])
    for key in ("file_rules", "program_index", "call_graph",
                "pass_P3", "pass_P13"):
        assert key in report.timings
        assert report.timings[key] >= 0.0
    assert json.loads(render_json(report))["timings"] == report.timings


def test_call_graph_is_built_once_per_run(tree, monkeypatch):
    from repro.devtools.program import callgraph

    built = []
    build = callgraph.build_call_graph
    monkeypatch.setattr(
        callgraph,
        "build_call_graph",
        lambda program: built.append(program) or build(program),
    )
    lint([tree])
    assert len(built) == 1


@pytest.mark.parametrize(
    ("argv", "target"),
    [
        (["--select", "P1", "--ignore", "P1"], "repro"),
        (["--select", ""], "repro"),
        # a loose file gets no project rule
        (["--select", "P2"], "loose.py"),
    ],
    ids=["select-minus-ignore", "empty-select", "project-rule-on-loose-file"],
)
def test_empty_rule_set_is_usage_error(tree, capsys, argv, target):
    (tree.parent / "loose.py").write_text("import random\n", encoding="utf-8")
    assert main([*argv, str(tree.parent / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-lint: no rule left to run")
    assert len(captured.err.strip().splitlines()) == 1


def test_json_rules_carry_suppression_help(tree, capsys):
    assert main(
        ["--select", "P3", "--format", "json", str(tree)]
    ) == 1
    payload = json.loads(capsys.readouterr().out)
    (rule,) = payload["rules"]
    assert "# reprolint: disable=P3" in rule["suppression"]


def test_sarif_help_includes_pass_specific_markers(tree, capsys):
    assert main(
        ["--select", "P6,P13", "--format", "sarif",
         str(tree)]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    helps = {
        r["id"]: r["help"]["text"]
        for r in payload["runs"][0]["tool"]["driver"]["rules"]
    }
    assert "# event-loop-safe: <reason>" in helps["P6"]
    assert "# reprolint: disable=P13" in helps["P13"]
    assert "justify" not in helps["P13"]
