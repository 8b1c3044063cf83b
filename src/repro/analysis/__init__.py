"""shadowlint: static determinism & soundness checks for this repo.

The test matrix enforces the repository's core invariants *dynamically*
-- bit-identical serial-order merges across backends, hash-consed
snapshot immutability, pickle-safe pool payloads, machines that speak
the ``snapshot_words`` protocol -- which means a violation only surfaces
when a test happens to hit it, often probabilistically (a salted
``hash()`` misbehaves only under an unlucky ``PYTHONHASHSEED``).  This
package is the same move the paper makes with shadow logic, applied at
the meta level: turn each hygiene property into a *checkable
certificate*.  An AST pass over the source proves the cheap static
projection of each invariant on every run, before a flaky distributed
campaign pays for the violation.

Usage::

    python -m repro.analysis                  # lint src/repro
    python -m repro.analysis path/to/file.py  # lint specific files
    python -m repro.analysis --json           # machine-readable findings
    python -m repro.analysis --write-baseline # grandfather current findings

Findings are suppressed three ways, in order of preference:

1. fix the code;
2. an inline waiver comment carrying a reason::

       ident = id(obj)  # repro: allow[determinism] identity memo, process-local

   (``# repro: allow-file[checker-id] reason`` anywhere in a file waives
   the whole file for that checker);
3. an entry in the committed baseline file (``analysis-baseline.json``),
   for grandfathered findings awaiting a fix.

Checkers are plugins: subclass :class:`repro.analysis.framework.Checker`
and decorate with :func:`repro.analysis.framework.register`.  The four
built-ins (:mod:`repro.analysis.checkers`) are ``determinism``,
``wire-safety``, ``snapshot-purity`` and ``packed-caps``.
"""

from repro.analysis.framework import (
    Checker,
    Finding,
    Project,
    Report,
    SourceFile,
    analyze,
    built_in_checkers,
    register,
)

__all__ = [
    "Checker",
    "Finding",
    "Project",
    "Report",
    "SourceFile",
    "analyze",
    "built_in_checkers",
    "register",
]
