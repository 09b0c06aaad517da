"""Suppression and sentinel comment parsing for reprolint.

Four comment forms are recognised (all parsed from real COMMENT tokens,
so occurrences inside string literals are ignored):

``# reprolint: disable=R3`` (or ``disable=R1,R3``)
    Suppresses the listed rules on the comment's own line.  When the
    comment is the only thing on its line, it suppresses the *next*
    line instead — useful when the 79-column budget leaves no room for
    a trailing comment.

``# reprolint: disable-file=R1``
    Suppresses the listed rules for the whole file.

``# exact-sentinel: <reason>``
    Marks a float equality against the exact ``0.0`` / ``1.0``
    sentinels as intentional; rule R3 accepts the comparison only when
    this marker (with a non-empty reason) is present.  See
    ``docs/static-analysis.md`` for when exact float equality is
    actually sound.

``# event-loop-safe: <reason>``
    Marks a call the async-blocking pass (P6) would flag as safe to run
    on the event loop, with the justification the reviewer needs (e.g.
    "closed-form estimator, sub-ms at live pool scale").  A non-empty
    reason is mandatory — the bare marker does not suppress.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_DISABLE_RE = re.compile(
    r"#\s*reprolint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)
_SENTINEL_RE = re.compile(r"#\s*exact-sentinel:\s*(?P<reason>\S.*)")
_LOOP_SAFE_RE = re.compile(r"#\s*event-loop-safe:\s*(?P<reason>\S.*)")


@dataclass
class Suppressions:
    """Per-file suppression state, queried by rules via the context."""

    file_level: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: lines whose suppression comment stands alone and therefore also
    #: covers the following line
    standalone: set[int] = field(default_factory=set)
    sentinel_lines: set[int] = field(default_factory=set)
    standalone_sentinels: set[int] = field(default_factory=set)
    loop_safe_lines: set[int] = field(default_factory=set)
    standalone_loop_safe: set[int] = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_level:
            return True
        if rule_id in self.by_line.get(line, ()):
            return True
        prev = line - 1
        return prev in self.standalone and rule_id in self.by_line.get(
            prev, ()
        )

    def has_sentinel(self, line: int) -> bool:
        return (
            line in self.sentinel_lines
            or (line - 1) in self.standalone_sentinels
        )

    def has_loop_safe(self, line: int) -> bool:
        """True when an ``# event-loop-safe: <reason>`` marker covers
        ``line`` (same line, or standalone on the line above)."""
        return (
            line in self.loop_safe_lines
            or (line - 1) in self.standalone_loop_safe
        )


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression/sentinel markers from ``source``.

    Tolerates files that fail to tokenize (the caller reports a parse
    error separately); in that case no suppressions apply.
    """
    sup = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return sup
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line_no = tok.start[0]
        text = tok.string
        standalone = tok.line[: tok.start[1]].strip() == ""
        match = _DISABLE_RE.search(text)
        if match is not None:
            rules = {r.strip() for r in match.group("rules").split(",")}
            if match.group("scope"):
                sup.file_level |= rules
            else:
                sup.by_line.setdefault(line_no, set()).update(rules)
                if standalone:
                    sup.standalone.add(line_no)
        sentinel = _SENTINEL_RE.search(text)
        if sentinel is not None:
            sup.sentinel_lines.add(line_no)
            if standalone:
                sup.standalone_sentinels.add(line_no)
        loop_safe = _LOOP_SAFE_RE.search(text)
        if loop_safe is not None:
            sup.loop_safe_lines.add(line_no)
            if standalone:
                sup.standalone_loop_safe.add(line_no)
    return sup
