"""CLI behaviour of ``repro-lint``: exit codes, formats, filtering."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.cli import main

CLEAN = '"""Docs."""\n\nfrom __future__ import annotations\n\nx = 1.0\n'
DIRTY = "from __future__ import annotations\nimport random\n"


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    root = tmp_path / "repro" / "sim"
    root.mkdir(parents=True)
    (root / "clean.py").write_text(CLEAN, encoding="utf-8")
    (root / "dirty.py").write_text(DIRTY, encoding="utf-8")
    return tmp_path / "repro"


def test_exit_zero_and_summary_on_clean_tree(tree, capsys):
    (tree / "sim" / "dirty.py").unlink()
    assert main([str(tree)]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_exit_one_with_rule_id_and_location(tree, capsys):
    assert main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "R1" in out
    assert "dirty.py:2:0" in out


def test_json_format_is_parseable(tree, capsys):
    assert main(["--format", "json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 2
    assert [v["rule"] for v in payload["violations"]] == ["R1"]
    assert {r["id"] for r in payload["rules"]} == {"R1", "R3"}


def test_select_limits_active_rules(tree, capsys):
    assert main(["--select", "R3", str(tree)]) == 0
    assert "1 rules active" in capsys.readouterr().out


def test_ignore_drops_rules(tree):
    assert main(["--ignore", "R1", str(tree)]) == 0


def test_unknown_rule_id_is_usage_error(tree):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "R99", str(tree)])
    assert excinfo.value.code == 2


def test_missing_path_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path / "nope")])
    assert excinfo.value.code == 2


def test_list_rules_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id, slug in [
        ("R1", "no-unseeded-rng"),
        ("R3", "no-float-equality"),
    ]:
        assert rule_id in out
        assert slug in out


def test_egg_info_and_pycache_are_skipped(tmp_path, capsys):
    egg = tmp_path / "repro.egg-info"
    egg.mkdir()
    (egg / "junk.py").write_text("import random\n", encoding="utf-8")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "junk.py").write_text("import random\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert "0 violations in 0 files" in capsys.readouterr().out
