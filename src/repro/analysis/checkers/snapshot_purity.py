"""The ``snapshot-purity`` checker: hash-consed values must stay frozen.

The state engine keys its visited set on canonical objects: the
transition kernel's :class:`repro.mc.packed.AtomTable` maps equal
snapshot substructures onto one shared object, and its machine-state
and checker-state tables do the same for whole word rows and checker
snapshots.  These tables alias their inputs -- interning does not
copy -- so mutating a value after (or before re-)interning silently
corrupts every state that shares it: the table's key no longer matches
its stored hash, lookups miss, and the search either re-explores or,
worse, *skips* states.  No dynamic test catches this reliably, because
the corruption only shows where a colliding probe happens to land.

The rule (``interned-mutation``): within a function, any value that
flows into or out of an interning call --

- an argument of ``*.intern(...)`` / ``*.id_of(...)`` (aliased by the
  table from then on),
- a name bound from an interning call's result (the canonical object),
- a name bound from ``*.canonical_values()``,
- one-level aliases of those (``y = canon[i]``, ``y = canon.field``)

-- must not be mutated in place: no mutating method calls (``append``,
``add``, ``update``, ``__setitem__``-style subscript assignment, ...),
no augmented assignment.  Build a fresh structure instead, and intern
the frozen result.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import (
    Checker,
    Finding,
    Project,
    SourceFile,
    register,
)

#: Method names the checker treats as interning entry points.
_INTERN_METHODS = frozenset({"intern", "id_of"})
_INTERN_RESULTS = frozenset({"intern", "id_of", "canonical_values"})

#: In-place mutators of the builtin containers.
_MUTATORS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
    }
)


def _functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_intern_call(node: ast.expr, methods: frozenset[str], aliases: set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in methods:
        return True
    # ``intern = table.intern`` bound-method aliases (the explorer's
    # hot-loop idiom).
    return isinstance(func, ast.Name) and func.id in aliases


def _method_aliases(fn: ast.AST) -> set[str]:
    """Names bound to ``<obj>.intern`` / ``<obj>.id_of`` bound methods."""
    aliases: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in _INTERN_METHODS
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _tainted_names(fn: ast.AST, aliases: set[str]) -> set[str]:
    tainted: set[str] = set()
    for node in ast.walk(fn):
        # Arguments handed to an interning call are aliased by the table.
        if _is_intern_call(node, _INTERN_METHODS, aliases):
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    tainted.add(arg.id)
        # Names bound from an interning call's result are canonicals.
        if isinstance(node, ast.Assign) and _is_intern_call(
            node.value, _INTERN_RESULTS, aliases
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    # ``canonical, sid = table.intern(v)``: the canonical
                    # object is the aliased element; ids are plain ints,
                    # but taint every name -- mutating an int is a no-op
                    # for the rule anyway.
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            tainted.add(element.id)
    # One round of alias propagation: y = canon[i] / y = canon.attr.
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.Subscript, ast.Attribute)
        ):
            base = node.value.value
            if isinstance(base, ast.Name) and base.id in tainted:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
    return tainted


def _base_name(node: ast.expr) -> str | None:
    """The root name of ``x``, ``x[i]``, ``x.attr``, ``x[i].attr`` ..."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class SnapshotPurityChecker(Checker):
    id = "snapshot-purity"
    description = (
        "no in-place mutation of values flowing through AtomTable "
        "hash-consing"
    )

    def check(self, file: SourceFile, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for fn in _functions(file.tree):
            aliases = _method_aliases(fn)
            tainted = _tainted_names(fn, aliases)
            if not tainted:
                continue
            findings.extend(self._mutations(file, fn, tainted))
        return findings

    def _mutations(
        self, file: SourceFile, fn: ast.AST, tainted: set[str]
    ) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, name: str, what: str) -> None:
            findings.append(
                file.finding(
                    node, self.id, "interned-mutation",
                    f"{what} mutates {name!r}, which is hash-consed "
                    "(interned values are aliased, not copied); build a "
                    "fresh structure and intern the frozen result",
                )
            )

        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATORS:
                    name = _base_name(node.func.value)
                    if name in tainted:
                        flag(node, name, f".{node.func.attr}() call")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        name = _base_name(target)
                        if name in tainted:
                            flag(node, name, "subscript/attribute assignment")
            elif isinstance(node, ast.AugAssign):
                name = _base_name(node.target)
                if name in tainted:
                    flag(node, name, "augmented assignment")
        return findings
