"""repro.devtools — development tooling for the reproduction codebase.

The flagship component is **reprolint**, a domain-aware static-analysis
pass (``repro-lint`` on the command line) that machine-checks the
invariants the paper's math demands but Python itself cannot enforce:

- every stochastic path threads an explicitly seeded
  ``numpy.random.Generator`` (rule R1) so Figures 3-12 stay reproducible;
- hypergeometric probabilities stay in log-space (rule R2) because the
  binomial coefficients at paper scale (``N`` up to 150,000) overflow any
  fixed-width float — see :mod:`repro.core.combinatorics`;
- probability code never does unguarded float equality (rule R3);
- public APIs keep the paper's symbol vocabulary (rule R7) and the type
  annotations ``mypy --strict`` needs (rules R5/R6).

The per-file R-series is complemented by whole-program project rules
(P1-P14, ``repro-lint --project``) living in :mod:`.program`: import
layering contracts, interprocedural RNG provenance, determinism
dataflow into the DES event queue, wall-clock bans, dead-export
detection, the concurrency-era passes (event-loop blocking, orphan
coroutines, shared-state races, hot-path discipline), and the
numeric-era passes (log/linear domain confusion, probability-range
escapes, stability anti-patterns, and vectorization readiness, over
the :mod:`.program.numflow` value-domain index with its
``# domain: <log|linear> <reason>`` annotation) — with an incremental mode (``--changed [REF]``), an
import-graph export (``--graph``), and a SARIF 2.1.0 reporter
(``--format sarif``) for code scanning.  A finding is excused only
inline, by a justified suppression comment at its site.

See ``docs/static-analysis.md`` for the full rule catalogue and
suppression syntax, and ``docs/import-graph.md`` for the layering
contract.
"""

from __future__ import annotations

from .context import FileContext
from .registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    get_project_rule,
    get_rule,
    project_rule,
    resolve_rule_sets,
    resolve_rules,
    rule,
)
from .reporters import render_json, render_sarif, render_text
from .runner import LintReport, lint_paths, lint_project
from .violations import Violation

# Importing the rule modules registers every built-in rule: the R-series
# (per-file) and, via the program subpackage, the P-series (whole-tree).
from . import rules as _rules  # noqa: F401
from . import program as _program  # noqa: F401

__all__ = [
    "FileContext",
    "LintReport",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_project_rules",
    "all_rules",
    "get_project_rule",
    "get_rule",
    "lint_paths",
    "lint_project",
    "project_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_rule_sets",
    "resolve_rules",
    "rule",
]
