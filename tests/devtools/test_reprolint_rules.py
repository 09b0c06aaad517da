"""Unit tests for every built-in reprolint file rule (R1, R3).

Each test materialises a minimal module in a ``repro/...`` directory
under ``tmp_path`` and asserts the rule fires on violating code and
stays quiet on the idiomatic alternative.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import lint
from repro.devtools.registry import all_rules, resolve_rules


def lint_snippet(
    tmp_path: Path,
    code: str,
    *,
    rel: str = "repro/core/mod.py",
    select: list[str] | None = None,
) -> list[str]:
    """Lint ``code`` placed at ``rel``; return ``"R# line"`` strings.

    ``code`` is dedented; a leading ``HEADER`` line (which tests prepend
    unindented) is stripped first so it does not defeat the dedent.
    """
    if code.startswith(HEADER):
        code = HEADER + textwrap.dedent(code[len(HEADER) :])
    else:
        code = textwrap.dedent(code)
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code, encoding="utf-8")
    report = lint([path], select=select)
    return [f"{v.rule_id} {v.line}" for v in report.violations]


HEADER = "from __future__ import annotations\n"


class TestR1UnseededRNG:
    def test_flags_np_random_seed_and_legacy_samplers(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            import numpy as np

            def bad() -> None:
                np.random.seed(0)
                np.random.shuffle([1, 2])
            """,
            select=["R1"],
        )
        assert hits == ["R1 5", "R1 6"]

    def test_flags_stdlib_random_and_argless_default_rng(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            import random
            from random import shuffle
            import numpy as np

            rng = np.random.default_rng()
            """,
            select=["R1"],
        )
        assert hits == ["R1 2", "R1 3", "R1 6"]

    def test_flags_legacy_import_from_numpy_random(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER + "from numpy.random import rand\n",
            select=["R1"],
        )
        assert hits == ["R1 2"]

    def test_seeded_generator_is_clean(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            import numpy as np
            from numpy.random import default_rng, SeedSequence

            rng = np.random.default_rng(42)
            rng2 = default_rng(SeedSequence(7))
            """,
            select=["R1"],
        )
        assert hits == []

    def test_test_fixtures_are_exempt(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER + "import numpy as np\nrng = np.random.default_rng()\n",
            rel="repro/core/test_mod.py",
            select=["R1"],
        )
        assert hits == []


class TestR3FloatEquality:
    def test_flags_equality_with_float_literal(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER + "def f(p: float) -> bool:\n    return p == 0.3\n",
            select=["R3"],
        )
        assert hits == ["R3 3"]

    def test_flags_float_call_and_math_inf(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            import math

            def f(x: float) -> bool:
                return x == float("-inf") or x != math.inf
            """,
            select=["R3"],
        )
        assert [h.split()[0] for h in hits] == ["R3", "R3"]

    def test_unmarked_zero_sentinel_flagged(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER + "def f(q: float) -> bool:\n    return q == 0.0\n",
            select=["R3"],
        )
        assert hits == ["R3 3"]

    def test_marked_sentinel_accepted(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            def f(q: float) -> bool:
                return q == 0.0  # exact-sentinel: exp(-inf) is exact 0.0
            """,
            select=["R3"],
        )
        assert hits == []

    def test_standalone_sentinel_covers_next_line(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            def f(q: float) -> bool:
                # exact-sentinel: m == 0 branch returns exact 1.0
                return q == 1.0
            """,
            select=["R3"],
        )
        assert hits == []

    def test_sentinel_marker_requires_reason(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + "def f(q: float) -> bool:\n"
            + "    return q == 0.0  # exact-sentinel:\n",
            select=["R3"],
        )
        assert hits == ["R3 3"]

    def test_int_comparison_is_clean(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER + "def f(n: int) -> bool:\n    return n == 0\n",
            select=["R3"],
        )
        assert hits == []


class TestSuppressions:
    def test_line_disable_comment(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + "def f(p: float) -> bool:\n"
            + "    return p == 0.5  # reprolint: disable=R3\n",
            select=["R3"],
        )
        assert hits == []

    def test_standalone_disable_covers_next_line(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            HEADER
            + """\
            def f(p: float) -> bool:
                # reprolint: disable=R3
                return p == 0.5
            """,
            select=["R3"],
        )
        assert hits == []

    def test_file_level_disable(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            "# reprolint: disable-file=R1\nimport random\n",
            select=["R1"],
        )
        assert hits == []

    def test_disable_only_silences_listed_rules(self, tmp_path):
        hits = lint_snippet(
            tmp_path,
            "import random  # reprolint: disable=R3\n",
            select=["R1", "R3"],
        )
        assert hits == ["R1 1"]


class TestFramework:
    def test_builtin_file_rules_registered(self):
        ids = [r.rule_id for r in all_rules() if r.scope == "file"]
        assert ids == ["R1", "R3"]
        assert len(all_rules()) == 10

    def test_resolve_rules_rejects_unknown_ids(self):
        import pytest

        with pytest.raises(KeyError):
            resolve_rules(select=["R99"])

    def test_unparsable_file_reports_parse_violation(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        violations = lint([path]).violations
        assert [v.rule_id for v in violations] == ["PARSE"]
