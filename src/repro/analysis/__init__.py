"""shadowlint: static determinism & soundness checks for this repo.

The test matrix enforces the repository's core invariants *dynamically*
-- bit-identical serial-order merges at every worker count, hash-consed
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

Exit status 0 on a clean tree, 1 on any finding, 2 for a missing path.
A finding goes away one of two ways, in order of preference:

1. fix the code;
2. waive it inline with a comment carrying a reason::

       ident = id(obj)  # repro: allow[determinism] identity memo, process-local

   (``# repro: allow-file[checker-id] reason`` anywhere in a file waives
   the whole file for that checker).

The checker set is fixed: :data:`repro.analysis.checkers.CHECKERS`
holds ``determinism``, ``packed-caps``, ``snapshot-purity`` and
``wire-safety``.  :func:`analyze` runs all four unless given a subset.
"""

from repro.analysis.framework import (
    Checker,
    Finding,
    Project,
    Report,
    SourceFile,
    analyze,
)
from repro.analysis.checkers import built_in_checkers

__all__ = [
    "Checker",
    "Finding",
    "Project",
    "Report",
    "SourceFile",
    "analyze",
    "built_in_checkers",
]
