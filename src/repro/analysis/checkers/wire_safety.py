"""The ``wire-safety`` checker: static pickle-safety of pool payloads.

Everything a campaign pickles into pool workers, and every result they
pickle back, must pickle by reference to module-level, layout-stable
classes.  A lambda default or a function-local helper class smuggled
into a :class:`~repro.campaign.executor.WorkItem` field only
explodes when a process-pool campaign first ships it.  This checker
walks the static type graph instead: starting from the root classes
that cross the pool boundary, it follows dataclass field annotations to
every class statically reachable from them and enforces:

``local-class``
    The class is defined inside a function.  Pickle resolves classes by
    module + qualname; a function-local class is unreachable from the
    receiving process.

``lambda-field``
    A ``lambda`` appears in the class body (a default, a
    ``field(default=...)``, a class attribute).  Lambdas never pickle.

``unslotted``
    The class declares no instance layout -- it is not a dataclass /
    NamedTuple / Enum and has no ``__slots__``.  Ad-hoc ``__dict__``
    layouts drift silently; declared layouts fail loudly on mismatch.

``callable-field``
    A field is annotated ``Callable``.  Closures satisfy the annotation
    but do not pickle; payloads must carry declarative specs (e.g.
    :class:`repro.campaign.registry.CoreSpec`).  Where every runtime
    value is a module-level function (pickled by reference), waive with
    that reason.

Reachability is by annotation identifiers, resolved against every class
defined in the analyzed files; unknown names (builtins, typing forms)
are skipped.  The root set is :data:`WIRE_ROOTS`.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.framework import (
    Checker,
    ClassInfo,
    Finding,
    Project,
    SourceFile,
)

#: Classes pickled into pool workers or back out of them (the work
#: item and what it carries, every result kind a shard returns), the
#: roots of the reachability walk.
WIRE_ROOTS = (
    "WorkItem",
    "ShardFailure",
    "FuzzShard",
    "MinimizeProbe",
    "FuzzShardResult",
    "ProbeResult",
    "Outcome",
    "CoreSpec",
    # A traced shard returns its outcome wrapped with the span batch it
    # recorded (repro.obs.recorder).
    "SpanBatch",
    "SpanRecord",
    "EventRecord",
    "TracedOutcome",
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _annotation_names(node: ast.expr) -> set[str]:
    """Every identifier mentioned by an annotation, forward refs included."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(_IDENT_RE.findall(sub.value))
    return names


def reachable_classes(project: Project) -> dict[str, ClassInfo]:
    """The wire-reachable subset of the project's class index."""
    index = project.class_index
    reached: dict[str, ClassInfo] = {}
    queue = [name for name in WIRE_ROOTS if name in index]
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        info = index[name]
        reached[name] = info
        for _field, annotation, _line in info.annotations:
            for ident in sorted(_annotation_names(annotation)):
                if ident in index and ident not in reached:
                    queue.append(ident)
    return reached


class WireSafetyChecker(Checker):
    """Classes reachable from pool payloads must be module-level,
    layout-declared, lambda- and closure-free."""

    id = "wire-safety"

    def check(self, file: SourceFile, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for name in sorted(reachable_classes(project)):
            info = project.class_index[name]
            if info.file is not file:
                continue
            node = info.node
            if not info.module_level:
                findings.append(
                    file.finding(
                        node, self.id, "local-class",
                        f"{name} is wire-reachable but defined at function "
                        "scope; pickle resolves classes by module-level "
                        "qualname only",
                    )
                )
            for line in info.lambda_lines:
                findings.append(
                    file.finding(
                        line, self.id, "lambda-field",
                        f"lambda inside wire-reachable class {name}; "
                        "lambdas never pickle",
                    )
                )
            if not info.is_slot_stable():
                findings.append(
                    file.finding(
                        node, self.id, "unslotted",
                        f"{name} is wire-reachable but declares no instance "
                        "layout (not a dataclass/NamedTuple/Enum, no "
                        "__slots__); ad-hoc __dict__ layouts drift silently "
                        "across versions",
                    )
                )
            for field_name, annotation, line in info.annotations:
                if "Callable" in _annotation_names(annotation):
                    findings.append(
                        file.finding(
                            line, self.id, "callable-field",
                            f"{name}.{field_name} is typed Callable; "
                            "closures satisfy it but do not pickle -- "
                            "carry a declarative spec, or waive if every "
                            "runtime value is a module-level function",
                        )
                    )
        return findings
