"""The ``packed-caps`` checker: every machine speaks the kernel's protocol.

The memoized transition kernel (:mod:`repro.mc.vector`) is the search's
only state engine, and it steps machines through their
``snapshot_words``/``restore_words`` pair (the tagged-word format of
:mod:`repro.mc.packed`).  The legacy-equivalence suite pins the
*behavior* of the machines it instantiates, but nothing audits the
protocol itself: a machine without the words methods crashes the first
search over it, and a subclass that overrides ``snapshot`` while
inheriting ``snapshot_words`` lets the two state layouts drift apart --
the exact corruption the equivalence suite can only catch for cores it
happens to instantiate.

Rules, applied to every machine-like class (one defining ``snapshot``,
``restore`` and ``step``; ``Protocol`` definitions are exempt):

``missing-words``
    ``snapshot_words`` or ``restore_words`` is missing from the class
    and its bases.

``snapshot-drift``
    The class overrides ``snapshot``/``restore`` without overriding the
    corresponding words method (or vice versa): the word and object
    layouts no longer come from the same definition site and can
    diverge.

``words-attr-drift``
    Within one class, ``snapshot`` and ``snapshot_words`` read different
    sets of ``self.*`` state fields -- the packability inference: the
    word encoding must cover exactly the state the object snapshot
    covers.

``unreported-dmem-read``
    A method other than ``__init__``/``reset`` reads ``self._dmem``
    without assigning ``self.dmem_read``.  The kernel shares one machine
    step across every data memory that agrees at the word ``dmem_read``
    names, so a read the machine does not report makes that sharing
    unsound.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import (
    Checker,
    ClassInfo,
    Finding,
    Project,
    SourceFile,
    register,
)

_MACHINE_METHODS = frozenset({"snapshot", "restore", "step"})
#: Methods that (re)load the data memory rather than step over it.
_DMEM_SETUP = frozenset({"__init__", "reset"})
_WORD_PAIR = (("snapshot", "snapshot_words"), ("restore", "restore_words"))


def _resolved_bases(info: ClassInfo, project: Project) -> list[ClassInfo]:
    """The statically resolvable ancestry of a class (MRO-ish, by name)."""
    out: list[ClassInfo] = []
    queue = list(info.bases)
    seen = {info.name}
    index = project.class_index
    while queue:
        name = queue.pop(0).rsplit(".", 1)[-1]
        if name in seen or name not in index:
            continue
        seen.add(name)
        base = index[name]
        out.append(base)
        queue.extend(base.bases)
    return out


def _state_attr_reads(fn: ast.AST) -> frozenset[str]:
    """``self.X`` attribute loads inside ``fn``, excluding method calls.

    ``self.seq_base()`` is behavior, not state; ``self._cache.snapshot()``
    still reads the state field ``_cache``.
    """
    called: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func
            if isinstance(attr.value, ast.Name) and attr.value.id == "self":
                called.add(id(attr))  # repro: allow[determinism] AST-node identity within one pass
    reads: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and id(node) not in called  # repro: allow[determinism] AST-node identity within one pass
        ):
            reads.add(node.attr)
    return frozenset(reads)


def _self_attr(fn: ast.AST, attr: str, ctx: type) -> bool:
    """Whether ``fn`` loads or stores (``ctx``) the field ``self.attr``."""
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.ctx, ctx)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        for node in ast.walk(fn)
    )


@register
class PackedCapsChecker(Checker):
    id = "packed-caps"
    description = (
        "every machine implements the snapshot_words/restore_words "
        "protocol in step with snapshot/restore and reports its "
        "data-memory reads"
    )

    def check(self, file: SourceFile, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for info in sorted(
            (
                info
                for info in project.class_index.values()
                if info.file is file
            ),
            key=lambda info: info.node.lineno,
        ):
            if info.is_protocol():
                continue
            own = set(info.methods)
            all_methods = set(own)
            for base in _resolved_bases(info, project):
                all_methods.update(base.methods)
            if not _MACHINE_METHODS <= all_methods:
                continue
            name = info.name
            for words in ("snapshot_words", "restore_words"):
                if words not in all_methods:
                    findings.append(
                        file.finding(
                            info.node, self.id, "missing-words",
                            f"{name} defines snapshot/restore/step but "
                            f"not {words}; the transition kernel would "
                            "crash on the first search over it",
                        )
                    )
            for obj_method, words_method in _WORD_PAIR:
                if (obj_method in own) != (words_method in own):
                    findings.append(
                        file.finding(
                            info.node, self.id, "snapshot-drift",
                            f"{name} overrides "
                            f"{obj_method if obj_method in own else words_method}"
                            " without overriding its counterpart "
                            f"({words_method if obj_method in own else obj_method});"
                            " word and object state layouts can drift",
                        )
                    )
            findings.extend(self._attr_drift(file, info))
            for method, fn in info.methods.items():
                if (
                    method not in _DMEM_SETUP
                    and _self_attr(fn, "_dmem", ast.Load)
                    and not _self_attr(fn, "dmem_read", ast.Store)
                ):
                    findings.append(
                        file.finding(
                            fn, self.id, "unreported-dmem-read",
                            f"{name}.{method} reads self._dmem without "
                            "assigning self.dmem_read; the kernel would "
                            "share this step across memories it tells apart",
                        )
                    )
        return findings

    def _attr_drift(self, file: SourceFile, info: ClassInfo) -> list[Finding]:
        snapshot = info.methods.get("snapshot")
        words = info.methods.get("snapshot_words")
        if snapshot is None or words is None:
            return []
        object_reads = _state_attr_reads(snapshot)
        packed_reads = _state_attr_reads(words)
        findings: list[Finding] = []
        missing = sorted(object_reads - packed_reads)
        extra = sorted(packed_reads - object_reads)
        if missing:
            findings.append(
                file.finding(
                    words, self.id, "words-attr-drift",
                    f"{info.name}.snapshot_words never reads state "
                    f"field(s) {', '.join(missing)} that snapshot "
                    "serializes; the word encoding drops state",
                )
            )
        if extra:
            findings.append(
                file.finding(
                    words, self.id, "words-attr-drift",
                    f"{info.name}.snapshot_words reads state field(s) "
                    f"{', '.join(extra)} that snapshot never serializes; "
                    "the two layouts have drifted",
                )
            )
        return findings
