"""Rule P5: public-API surface vs. actual cross-module use.

Every ``__init__.py`` ``__all__`` entry is a promise.  This pass checks
the promise two ways:

- **broken export** — the name is listed but never bound in the
  ``__init__`` (a refactor moved the symbol and forgot the facade);
- **dead export** — no module outside the exporting package (library,
  tests, examples, or benchmarks) ever imports or attribute-references
  the name.  Dead surface is where bit-rot hides: it compiles, it is
  advertised, and nothing would notice if it broke.

Uses are counted statically: ``from pkg import name``, ``from
pkg.sub import name``, plain submodule imports, and one-hop attribute
access through a bound module alias (``alias.name``).  Dynamic access
(``getattr``, ``importlib``) is invisible — suppress such exports with
a justification comment on the ``__all__`` entry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..context import dotted_parts
from ..registry import project_rule
from .context import ModuleInfo, ProgramContext

__all__ = ["exported_names", "collect_uses"]


def exported_names(info: ModuleInfo) -> list[tuple[str, int, int]]:
    """``__all__`` entries of a module with their source locations."""
    exports: list[tuple[str, int, int]] = []
    for node in info.ctx.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    exports.append(
                        (element.value, element.lineno, element.col_offset)
                    )
    return exports


def _bound_names(info: ModuleInfo) -> set[str]:
    """Names bound at module level (defs, classes, assigns, imports)."""
    bound: set[str] = set()
    for node in info.ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # conditional imports (optional deps) still bind on one arm
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    bound.update(_import_bound(child))
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        bound.update(_target_names(target))
    for record in info.imports:
        if record.names:
            for local, _ in record.bindings():
                bound.add(local)
        elif record.module_alias is not None:
            bound.add(record.module_alias)
    return bound


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names |= _target_names(element)
        return names
    return set()


def _import_bound(node: ast.Import | ast.ImportFrom) -> set[str]:
    bound = set()
    for alias in node.names:
        if alias.asname is not None:
            bound.add(alias.asname)
        elif isinstance(node, ast.Import):
            bound.add(alias.name.split(".", 1)[0])
        else:
            bound.add(alias.name)
    return bound


def collect_uses(program: ProgramContext) -> set[tuple[str, str]]:
    """All observed (module prefix, name) uses across the program.

    A pair ``("repro.core", "greedy_sizes")`` means some module imported
    or attribute-accessed ``greedy_sizes`` through ``repro.core`` or one
    of its submodules.  The *user's* own package is recorded alongside
    so callers can exclude intra-package uses.
    """
    uses: set[tuple[str, str]] = set()
    for info in program.all_modules():
        module_aliases: dict[str, str] = {}
        for record in info.imports:
            target = record.target
            if record.names:
                if program.is_internal(target):
                    # `from repro.experiments.fig3 import run` is a use
                    # of `experiments` in repro and `fig3` in
                    # repro.experiments: the dotted path exercises every
                    # facade it traverses.
                    parts = target.split(".")
                    for index in range(1, len(parts)):
                        prefix = ".".join(parts[:index])
                        uses.add(
                            (f"{info.package}|{prefix}", parts[index])
                        )
                for local, original in record.bindings():
                    uses.add((f"{info.package}|{target}", original))
                    # The bound name may itself be a module: remember it
                    # so `local.attr` counts as a use through it.
                    submodule = f"{target}.{original}"
                    if program.is_internal(submodule):
                        module_aliases[local] = submodule
                    elif program.is_internal(target):
                        module_aliases.setdefault(local, target)
            elif record.module_alias is not None and program.is_internal(
                target
            ):
                # `import repro.core.greedy` is a use of every package
                # on the dotted path.
                parts = target.split(".")
                for index in range(1, len(parts)):
                    prefix = ".".join(parts[:index])
                    uses.add((f"{info.package}|{prefix}", parts[index]))
                if record.module_alias == parts[0]:
                    module_aliases.setdefault(parts[0], parts[0])
                else:
                    module_aliases[record.module_alias] = target
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            chain = dotted_parts(node)
            if chain is None:
                continue
            head, *attrs = chain
            base = module_aliases.get(head)
            if base is None or not attrs:
                continue
            # alias.a.b: each dotted step may step into a subpackage.
            current = base
            for attr in attrs:
                uses.add((f"{info.package}|{current}", attr))
                current = f"{current}.{attr}"
    return uses


@project_rule(
    "P5",
    "dead-export",
    "__all__ is the public contract the API tests enforce; an entry "
    "nothing imports is unmaintained surface where regressions hide, "
    "and an entry that no longer resolves is a broken promise — both "
    "surface here so the facade and the implementation cannot drift.",
)
def check_dead_exports(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    uses = collect_uses(program)

    def used_outside(package: str, name: str) -> bool:
        for user_package_prefix, used_name in uses:
            user_package, prefix = user_package_prefix.split("|", 1)
            if used_name != name:
                continue
            # exclude uses from inside the exporting package itself
            if user_package == package or user_package.startswith(
                package + "."
            ):
                continue
            if prefix == package or prefix.startswith(package + "."):
                return True
        return False

    for info in program.project_modules():
        if not info.is_package:
            continue
        bound = _bound_names(info)
        for name, line, col in exported_names(info):
            if name not in bound:
                yield (
                    info.ctx.path,
                    line,
                    col,
                    f"__all__ lists `{name}` but {info.name} never binds "
                    "it — broken export",
                )
            elif not used_outside(info.name, name):
                yield (
                    info.ctx.path,
                    line,
                    col,
                    f"export `{name}` of {info.name} has no cross-module "
                    "use (library, tests, examples); drop it from "
                    "__all__ or add coverage",
                )
