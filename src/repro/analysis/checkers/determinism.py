"""The ``determinism`` checker: cross-process reproducibility hazards.

Everything merged into a campaign result must be a pure function of the
work item -- that is the bit-identity contract every backend is pinned
against.  Python offers several innocuous-looking ways to break it that
only misbehave under an unlucky ``PYTHONHASHSEED`` or process layout,
which is exactly the class of bug a dynamic test matrix hits
probabilistically.  The rules:

``salted-hash``
    A call to builtin ``hash()`` outside a ``__hash__`` method.  String
    (and enum-containing) hashes are salted per process, so a ``hash()``
    feeding a seed, a key or an ordering diverges across workers (the
    historical ``random.Random(hash((seed, pc, occurrence)))`` predictor
    bug).  Use :func:`repro.rand.derive_seed` for seeds and a
    :mod:`hashlib` digest (e.g. BLAKE2b over a pickle) for content keys.

``id-value``
    A call to builtin ``id()``.  Identity is process-local and
    allocation-order dependent; an ``id()``-keyed structure is sound
    only as a within-process memo, which deserves an explicit waiver
    stating why (see ``repro/mc/explorer.py`` for the pattern).

``set-iter``
    A ``for`` loop, list/generator/dict comprehension iterating directly
    over a set.  Set iteration order depends on element hashes (salted
    for strings), so any ordered result built from it -- a merge list, a
    JSONL record, a requeue -- differs between runs.  Wrap the set in
    ``sorted(...)`` or keep an ordered structure alongside.  Set
    comprehensions over sets are order-free and exempt.

``import-time-input``
    A module-scope read of ``os.environ``, ``time.*()`` clocks or the
    ``random`` module.  Import-time environment capture makes behavior
    depend on which process imported the module first -- pool workers
    and the coordinator import in different orders.

``global-random``
    A call drawing from the shared module-level ``random`` stream
    (``random.random()``, ``random.choice()``, ...).  The global stream
    is shared mutable state: any other consumer reorders every draw.
    Seed a local ``random.Random(derive_seed(...))`` instead.

``direct-clock``
    A function-scope ``time.*()`` clock read.  All wall/monotonic reads
    belong behind :mod:`repro.obs.clock` (same call cost, rebindable
    module globals): tests inject deterministic clocks through one seam,
    and trace timestamps stay mutually consistent.  ``repro/obs/clock.py``
    itself carries the file waiver -- it is the one sanctioned caller of
    ``time``; the frozen legacy engine keeps per-line waivers.
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

#: Functions of the ``random`` module that consume the *global* stream.
_GLOBAL_STREAM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Clock reads that are nondeterministic inputs at import time.
_CLOCKS = frozenset({"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns"})

#: Set methods whose result is itself a set.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Consumers for which iteration order is irrelevant (or re-sorted).
_ORDER_FREE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "min", "max", "len", "any", "all",
     "Counter"}
)

_SET_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Whether ``node`` statically evaluates to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_set_expr(func.value, set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _scope_walk(root: ast.AST):
    """Walk a scope without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _set_valued_names(scope: ast.AST) -> frozenset[str]:
    """Names assigned only set-typed values within one scope."""
    candidates: set[str] = set()
    disqualified: set[str] = set()
    # Two passes reach a fixed point for chains like ``a = set(); b = a``.
    for _ in range(2):
        known = frozenset(candidates - disqualified)
        for node in _scope_walk(scope):
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                targets = [node.target]
                value = node.value
                if value is None:
                    continue
            else:
                continue
            for target in targets:
                if _is_set_expr(value, known):
                    candidates.add(target.id)
                else:
                    disqualified.add(target.id)
    return frozenset(candidates - disqualified)


class _Visitor(ast.NodeVisitor):
    """Single pass handling the hash/id/import-time/global-random rules."""

    def __init__(self, file: SourceFile):
        self.file = file
        self.findings: list[Finding] = []
        self.func_stack: list[str] = []

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- rules ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "hash" and "__hash__" not in self.func_stack:
                self.findings.append(
                    self.file.finding(
                        node, "determinism", "salted-hash",
                        "builtin hash() is salted per process; derive seeds "
                        "with repro.rand.derive_seed and content keys with "
                        "a hashlib digest",
                    )
                )
            elif func.id == "id":
                self.findings.append(
                    self.file.finding(
                        node, "determinism", "id-value",
                        "id() is process-local and allocation-ordered; safe "
                        "only as a within-process memo (waive with the "
                        "reason if so)",
                    )
                )
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module, attr = func.value.id, func.attr
            if module == "random" and attr in _GLOBAL_STREAM:
                self.findings.append(
                    self.file.finding(
                        node, "determinism", "global-random",
                        f"random.{attr}() draws from the shared global "
                        "stream; seed a local random.Random("
                        "derive_seed(...)) instead",
                    )
                )
            elif module == "time" and attr in _CLOCKS:
                if not self.func_stack:
                    self.findings.append(
                        self.file.finding(
                            node, "determinism", "import-time-input",
                            f"module-scope time.{attr}() read captures "
                            "import-order-dependent state",
                        )
                    )
                else:
                    self.findings.append(
                        self.file.finding(
                            node, "determinism", "direct-clock",
                            f"direct time.{attr}() read; route clock reads "
                            "through repro.obs.clock (injectable for tests, "
                            "consistent trace timestamps)",
                        )
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.func_stack
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr == "environ"
        ):
            self.findings.append(
                self.file.finding(
                    node, "determinism", "import-time-input",
                    "module-scope os.environ read captures "
                    "import-order-dependent state; read it inside the "
                    "function that needs it",
                )
            )
        self.generic_visit(node)


@register
class DeterminismChecker(Checker):
    id = "determinism"
    description = (
        "salted hash()/id() values, set-order iteration, import-time "
        "environment reads, global random stream"
    )

    def check(self, file: SourceFile, project: Project) -> list[Finding]:
        visitor = _Visitor(file)
        visitor.visit(file.tree)
        findings = visitor.findings
        findings.extend(self._set_iteration(file))
        return findings

    # -- set-iteration rule ---------------------------------------------
    def _set_iteration(self, file: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        scopes: list[ast.AST] = [file.tree]
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            set_names = _set_valued_names(scope)
            for node in _scope_walk(scope):
                for iter_node in self._ordered_iters(node):
                    if _is_set_expr(iter_node, set_names):
                        findings.append(
                            file.finding(
                                iter_node, "determinism", "set-iter",
                                "iteration order over a set is "
                                "hash-dependent (salted for strings); "
                                "wrap in sorted(...) or keep an ordered "
                                "structure",
                            )
                        )
        return findings

    @staticmethod
    def _ordered_iters(node: ast.AST):
        """Iteration sites whose order is observable in the result."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # A comprehension handed straight to an order-free consumer
            # (sorted, set, sum, ...) is fine; anywhere else its order
            # leaks into the result.
            if not getattr(node, "_order_free", False):
                for gen in node.generators:
                    yield gen.iter
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name in _ORDER_FREE_CALLS:
                for arg in node.args:
                    if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                        arg._order_free = True  # type: ignore[attr-defined]
