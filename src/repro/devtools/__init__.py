"""repro.devtools — development tooling for the reproduction codebase.

The flagship component is **reprolint**, a domain-aware static-analysis
pass (``repro-lint`` on the command line) that machine-checks the
invariants the paper's math demands but Python itself cannot enforce:

- every stochastic path threads an explicitly seeded
  ``numpy.random.Generator`` (rule R1) so Figures 3-12 stay reproducible;
- probability code never does unguarded float equality (rule R3).

The per-file R-series is complemented by whole-program project rules
(the P-series) living in :mod:`.program`: import layering contracts,
interprocedural RNG provenance, determinism dataflow into the DES
event queue, dead-export detection, the concurrency passes (event-loop
blocking, shared-state races, hot-path discipline), and the numeric
stability pass.  One run applies both series: a package directory is
parsed and indexed once and gets every registered rule
(``repro-lint --list-rules``); loose files outside any package get the
file rules.  An import-graph export (``--graph``) and a SARIF 2.1.0
reporter (``--format sarif``) serve code scanning.  A finding is
excused only inline, by a justified suppression comment at its site.

See ``docs/static-analysis.md`` for the full rule catalogue and
suppression syntax, and ``docs/import-graph.md`` for the layering
contract.
"""

from __future__ import annotations

from .context import FileContext
from .registry import Rule, all_rules, project_rule, resolve_rules, rule
from .reporters import render_json, render_sarif, render_text
from .runner import LintReport, lint
from .violations import Violation

# Importing the rule modules registers every built-in rule: the R-series
# (per-file) and, via the program subpackage, the P-series (whole-tree).
from . import rules as _rules  # noqa: F401
from . import program as _program  # noqa: F401

__all__ = [
    "FileContext",
    "LintReport",
    "Rule",
    "Violation",
    "all_rules",
    "lint",
    "project_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_rules",
    "rule",
]
