"""Rule registry: how reprolint rules declare themselves.

A file rule is a generator function taking a :class:`FileContext` and
yielding ``(line, col, message)`` tuples.  The :func:`rule` decorator
attaches the metadata (stable ID, slug, rationale) and registers it::

    @rule("R9", "no-sleep", "time.sleep in library code stalls the DES")
    def check_no_sleep(ctx):
        for node in ast.walk(ctx.tree):
            ...
            yield node.lineno, node.col_offset, "time.sleep(...) call"

A project rule (:func:`project_rule`) takes the whole
:class:`~repro.devtools.program.context.ProgramContext` instead and
yields ``(path, line, col, message)``.  Both kinds live in one table;
a rule's ``scope`` says which context it reads.

IDs are stable contract: suppression comments, docs and CI output all
refer to them, so they are never reused for a different invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

#: a file rule maps a ``FileContext`` to ``(line, col, message)`` hits;
#: a project rule maps a ``ProgramContext`` to ``(path, line, col,
#: message)`` hits, since it must say *where* each one is.
CheckFn = Callable[[Any], Iterator[tuple[Any, ...]]]

_REGISTRY: dict[str, "Rule"] = {}


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    rule_id: str
    name: str
    rationale: str
    check: CheckFn
    scope: str  # "file" | "project"


def _registrar(
    rule_id: str, name: str, rationale: str, scope: str
) -> Callable[[CheckFn], CheckFn]:
    def decorator(fn: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(rule_id, name, rationale, fn, scope)
        return fn

    return decorator


def rule(
    rule_id: str, name: str, rationale: str
) -> Callable[[CheckFn], CheckFn]:
    """Register ``fn`` as the file rule ``rule_id``."""
    return _registrar(rule_id, name, rationale, "file")


def project_rule(
    rule_id: str, name: str, rationale: str
) -> Callable[[CheckFn], CheckFn]:
    """Register ``fn`` as the whole-program rule ``rule_id``."""
    return _registrar(rule_id, name, rationale, "project")


def _catalogue_order(r: Rule) -> tuple[bool, str]:
    return r.scope == "project", r.rule_id


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule: file rules, then project rules, by ID."""
    return tuple(sorted(_REGISTRY.values(), key=_catalogue_order))


def resolve_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> tuple[Rule, ...]:
    """The active rule set after ``--select`` / ``--ignore`` filtering.

    ``select`` names the only rules to run (default: all); ``ignore``
    removes rules from that set.  Unknown IDs raise ``KeyError`` so
    typos fail loudly instead of silently linting nothing.
    """

    def lookup(rule_id: str) -> Rule:
        try:
            return _REGISTRY[rule_id]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY)) or "<none>"
            raise KeyError(
                f"unknown rule {rule_id!r}; registered rules: {known}"
            ) from None

    chosen = (
        list(_REGISTRY.values())
        if select is None
        else [lookup(rule_id) for rule_id in select]
    )
    if ignore:
        dropped = {lookup(rule_id).rule_id for rule_id in ignore}
        chosen = [r for r in chosen if r.rule_id not in dropped]
    return tuple(sorted(set(chosen), key=_catalogue_order))
