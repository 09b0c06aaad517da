"""Text, JSON, and SARIF renderings of a :class:`LintReport`."""

from __future__ import annotations

import json
from pathlib import Path

from .runner import LintReport

#: rules with a pass-specific justification marker beyond the generic
#: ``# reprolint: disable=<ID>`` — the reporters surface the exact
#: syntax so a finding carries its own escape hatch.
_EXTRA_SUPPRESSIONS = {
    "R3": "# exact-sentinel: <reason>",
    "P6": "# event-loop-safe: <reason>",
}


def _suppression_help(rule_id: str) -> str:
    """How to suppress ``rule_id`` at a specific site."""
    base = f"# reprolint: disable={rule_id}"
    extra = _EXTRA_SUPPRESSIONS.get(rule_id)
    if extra is None:
        return f"Suppress with `{base}` on (or standalone above) the line."
    return (
        f"Suppress with `{base}` on (or standalone above) the line, or "
        f"justify the site with `{extra}`."
    )


def render_text(report: LintReport) -> str:
    """Human-readable report: one ``path:line:col: ID message`` per hit.

    The summary line always appears so CI logs show what ran even when
    the tree is clean.
    """
    lines = [v.format() for v in report.violations]
    noun = "violation" if len(report.violations) == 1 else "violations"
    summary = (
        f"reprolint: {len(report.violations)} {noun} in "
        f"{report.files_checked} files "
        f"({len(report.rules)} rules active)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report for editor/CI integration."""
    payload = {
        "violations": [v.to_dict() for v in report.violations],
        "files_checked": report.files_checked,
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "rationale": rule.rationale,
                "scope": rule.scope,
                "suppression": _suppression_help(rule.rule_id),
            }
            for rule in report.rules
        ],
        "ok": report.ok,
        "timings": report.timings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_uri(path: str, base: Path) -> str:
    """Repo-relative POSIX path when possible (what code scanning
    needs to anchor annotations), absolute URI otherwise."""
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return resolved.as_posix()


def render_sarif(report: LintReport, base: Path | None = None) -> str:
    """SARIF 2.1.0 rendering for GitHub code scanning.

    One run, one ``reprolint`` driver carrying the full rule catalogue
    (file + project scope), one result per violation.  ``base``
    (default: the current working directory) anchors the repo-relative
    artifact URIs code scanning matches against the checkout.
    """
    base = (base or Path.cwd()).resolve()
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.rationale},
            "help": {"text": _suppression_help(rule.rule_id)},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in report.rules
    ]
    results = [
        {
            "ruleId": v.rule_id,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _sarif_uri(v.path, base),
                        },
                        "region": {
                            "startLine": v.line,
                            "startColumn": v.col + 1,
                        },
                    }
                }
            ],
        }
        for v in report.violations
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
