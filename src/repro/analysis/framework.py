"""The shadowlint core: findings, waivers, the checker base class.

One :class:`SourceFile` per analyzed module (text + AST + parsed
waivers), one :class:`Project` per run (the cross-file class index the
wire-safety and words-protocol checkers traverse), and the
:class:`Checker` base class of the four checkers in
:mod:`repro.analysis.checkers`.  :func:`analyze` ties them together and
applies the inline waivers, returning a :class:`Report` whose
``findings`` are exactly the violations a CI gate should fail on.

Waiver grammar (checked; malformed waivers are themselves findings)::

    # repro: allow[checker-id] reason text
    # repro: allow[id-1,id-2] reason text
    # repro: allow-file[checker-id] reason text

A trailing waiver covers its own line; a waiver on a comment-only line
covers the next line as well; ``allow-file`` covers the whole file for
the named checkers.  The reason is mandatory: a suppression nobody can
re-audit is worse than the finding.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

#: Checker id the framework itself reports waiver-syntax problems under.
WAIVER_CHECKER = "waiver"

#: Checker id for files the parser cannot read at all.
PARSE_CHECKER = "parse"

_WAIVER_RE = re.compile(
    r"#\s*repro:\s*(allow(?:-file)?)\[([A-Za-z0-9_,\- ]*)\]\s*(.*)$"
)
_WAIVER_HINT_RE = re.compile(r"#\s*repro:")


@dataclass(frozen=True)
class Finding:
    """One static-analysis violation, anchored to a source line."""

    path: str
    line: int
    checker: str
    rule: str
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.checker, self.rule, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.checker}[{self.rule}] {self.message}"


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# repro: allow[...]`` annotation."""

    line: int
    file_level: bool
    checkers: tuple[str, ...]
    reason: str


class SourceFile:
    """One analyzed module: source text, AST, waivers.

    ``display`` is the path findings carry -- relative to the current
    directory when possible, so findings reported at the repo root read
    the same in every checkout.
    """

    def __init__(self, path: Path, text: str):
        self.path = path
        self.display = _display_path(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: str | None = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
        self.waivers: list[Waiver] = []
        self.waiver_findings: list[Finding] = []
        self._parse_waivers()
        self._line_waivers: dict[int, frozenset[str]] = {}
        self._file_waivers: frozenset[str] = frozenset()
        self._index_waivers()

    # -- waiver parsing -------------------------------------------------
    def _comments(self) -> list[tuple[int, str]]:
        """(line, text) of every real comment token.

        Tokenizing (rather than regexing raw lines) keeps waiver syntax
        *inside string literals and docstrings* -- grammar examples,
        documentation -- from parsing as live waivers.
        """
        comments: list[tuple[int, str]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    comments.append((token.start[0], token.string))
        except (tokenize.TokenizeError, IndentationError, SyntaxError):
            # Unparsable file: the AST layer reports it; no waivers.
            return []
        return comments

    def _parse_waivers(self) -> None:
        for lineno, line in self._comments():
            if not _WAIVER_HINT_RE.search(line):
                continue
            match = _WAIVER_RE.search(line)
            if match is None:
                self.waiver_findings.append(
                    Finding(
                        self.display, lineno, WAIVER_CHECKER, "malformed",
                        "unparsable waiver; expected "
                        "'# repro: allow[checker-id] reason'",
                    )
                )
                continue
            kind, ids, reason = match.groups()
            checkers = tuple(
                part.strip() for part in ids.split(",") if part.strip()
            )
            if not checkers:
                self.waiver_findings.append(
                    Finding(
                        self.display, lineno, WAIVER_CHECKER, "empty",
                        "waiver names no checker ids",
                    )
                )
                continue
            if not reason.strip():
                self.waiver_findings.append(
                    Finding(
                        self.display, lineno, WAIVER_CHECKER, "no-reason",
                        "waiver carries no reason; suppressions must be "
                        "re-auditable",
                    )
                )
                continue
            self.waivers.append(
                Waiver(
                    line=lineno,
                    file_level=(kind == "allow-file"),
                    checkers=checkers,
                    reason=reason.strip(),
                )
            )

    def _index_waivers(self) -> None:
        file_ids: set[str] = set()
        line_ids: dict[int, set[str]] = {}
        for waiver in self.waivers:
            if waiver.file_level:
                file_ids.update(waiver.checkers)
                continue
            covered = [waiver.line]
            text = self.lines[waiver.line - 1].strip()
            if text.startswith("#"):
                # Comment-only waiver line: covers the next line too.
                covered.append(waiver.line + 1)
            for lineno in covered:
                line_ids.setdefault(lineno, set()).update(waiver.checkers)
        self._file_waivers = frozenset(file_ids)
        self._line_waivers = {
            lineno: frozenset(ids) for lineno, ids in line_ids.items()
        }

    def is_waived(self, finding: Finding) -> bool:
        if finding.checker in self._file_waivers:
            return True
        ids = self._line_waivers.get(finding.line)
        return ids is not None and finding.checker in ids

    def finding(self, node_or_line, checker: str, rule: str, message: str) -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(self.display, line, checker, rule, message)


def _display_path(path: Path) -> str:
    resolved = path.resolve()
    cwd = Path.cwd().resolve()
    try:
        return resolved.relative_to(cwd).as_posix()
    except ValueError:
        return resolved.as_posix()


# ----------------------------------------------------------------------
# Cross-file class index
# ----------------------------------------------------------------------
@dataclass
class ClassInfo:
    """What the structural checkers need to know about one class def."""

    name: str
    file: SourceFile
    node: ast.ClassDef
    module_level: bool
    bases: tuple[str, ...]
    decorators: tuple[str, ...]
    has_slots: bool
    class_attrs: dict[str, ast.expr]
    annotations: tuple[tuple[str, ast.expr, int], ...]
    methods: dict[str, ast.FunctionDef]
    lambda_lines: tuple[int, ...]

    def is_dataclass(self) -> bool:
        return any("dataclass" in deco for deco in self.decorators)

    def is_slot_stable(self) -> bool:
        """Instance layout declared: dataclass, NamedTuple/Enum/Protocol
        base, or an explicit ``__slots__``."""
        if self.has_slots or self.is_dataclass():
            return True
        stable = ("NamedTuple", "Enum", "IntEnum", "Flag", "Protocol", "TypedDict")
        return any(
            base.rsplit(".", 1)[-1] in stable for base in self.bases
        )

    def is_protocol(self) -> bool:
        return any(base.rsplit(".", 1)[-1] == "Protocol" for base in self.bases)


def _name_of(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _name_of(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    if isinstance(node, ast.Call):
        return _name_of(node.func)
    if isinstance(node, ast.Subscript):
        return _name_of(node.value)
    return ""


def _collect_class(node: ast.ClassDef, file: SourceFile, module_level: bool) -> ClassInfo:
    has_slots = False
    class_attrs: dict[str, ast.expr] = {}
    annotations: list[tuple[str, ast.expr, int]] = []
    methods: dict[str, ast.FunctionDef] = {}
    lambda_lines: list[int] = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    class_attrs[target.id] = stmt.value
                    if target.id == "__slots__":
                        has_slots = True
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotations.append((stmt.target.id, stmt.annotation, stmt.lineno))
            if stmt.value is not None:
                class_attrs[stmt.target.id] = stmt.value
            if stmt.target.id == "__slots__":
                has_slots = True
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt  # type: ignore[assignment]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Lambda):
            lambda_lines.append(sub.lineno)
    return ClassInfo(
        name=node.name,
        file=file,
        node=node,
        module_level=module_level,
        bases=tuple(_name_of(base) for base in node.bases),
        decorators=tuple(_name_of(deco) for deco in node.decorator_list),
        has_slots=has_slots,
        class_attrs=class_attrs,
        annotations=tuple(annotations),
        methods=methods,
        lambda_lines=tuple(lambda_lines),
    )


class Project:
    """All files of one run plus the lazily built class index."""

    def __init__(self, files: list[SourceFile]):
        self.files = files
        self._class_index: dict[str, ClassInfo] | None = None

    @property
    def class_index(self) -> dict[str, ClassInfo]:
        """Name -> ClassInfo for every class def in the analyzed files.

        On a name collision the first definition (file order) wins; the
        structural checkers only traverse repo-unique names, so ties are
        benign.
        """
        if self._class_index is None:
            index: dict[str, ClassInfo] = {}
            for file in self.files:
                if file.tree is None:
                    continue
                for info in _iter_classes(file):
                    index.setdefault(info.name, info)
            self._class_index = index
        return self._class_index


def _iter_classes(file: SourceFile) -> Iterable[ClassInfo]:
    # Walk with an explicit stack so we know whether a class def is
    # importable at module scope (nested-in-class keeps a qualname path;
    # nested-in-function does not).
    def visit(node: ast.AST, in_function: bool) -> Iterable[ClassInfo]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield _collect_class(child, file, module_level=not in_function)
                yield from visit(child, in_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, True)
            else:
                yield from visit(child, in_function)

    yield from visit(file.tree, False)


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------
class Checker:
    """One analysis pass: a checker id plus a per-file ``check``."""

    #: Stable identifier used by waivers and findings.
    id: str = ""

    def check(self, file: SourceFile, project: Project) -> list[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: list[Finding]
    waived: int
    files: int

    @property
    def clean(self) -> bool:
        return not self.findings


def collect_files(paths: Iterable[Path]) -> list[SourceFile]:
    """Load every ``.py`` file under ``paths`` (dirs recurse, sorted)."""
    seen: dict[Path, SourceFile] = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            text = resolved.read_text(encoding="utf-8")
            seen[resolved] = SourceFile(candidate, text)
    return [seen[key] for key in sorted(seen)]


def analyze(
    paths: Iterable[Path], checkers: list[Checker] | None = None
) -> Report:
    """Run ``checkers`` (default: all four) over ``paths``; apply waivers."""
    files = collect_files(paths)
    project = Project(files)
    if checkers is None:
        # The checker modules import this one, so not at module level.
        from repro.analysis.checkers import built_in_checkers

        checkers = built_in_checkers()
    known = frozenset(c.id for c in checkers) | {WAIVER_CHECKER, PARSE_CHECKER}

    raw: list[Finding] = []
    for file in files:
        raw.extend(file.waiver_findings)
        for waiver in file.waivers:
            for cid in waiver.checkers:
                if cid not in known:
                    raw.append(
                        Finding(
                            file.display, waiver.line, WAIVER_CHECKER,
                            "unknown-checker",
                            f"waiver names unknown checker {cid!r}",
                        )
                    )
        if file.parse_error is not None:
            raw.append(
                Finding(
                    file.display, 1, PARSE_CHECKER, "syntax-error",
                    file.parse_error,
                )
            )
            continue
        for checker in checkers:
            raw.extend(checker.check(file, project))

    by_display = {file.display: file for file in files}
    active: list[Finding] = []
    waived = 0
    for finding in raw:
        file = by_display.get(finding.path)
        # Waiver-syntax findings are never themselves waivable.
        if (
            finding.checker != WAIVER_CHECKER
            and file is not None
            and file.is_waived(finding)
        ):
            waived += 1
        else:
            active.append(finding)

    active.sort(key=Finding.sort_key)
    return Report(findings=active, waived=waived, files=len(files))


def default_roots() -> list[Path]:
    """What ``python -m repro.analysis`` lints with no path arguments."""
    import repro

    package_root = Path(repro.__file__).resolve().parent
    cwd = Path.cwd().resolve()
    try:
        return [Path(os.path.relpath(package_root, cwd))]
    except ValueError:  # pragma: no cover - different drive on Windows
        return [package_root]
