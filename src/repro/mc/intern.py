"""Footprint measurement for canonical search states.

:func:`deep_sizeof` approximates the deep memory footprint of the
search's intern tables (the transition kernel's atom values, the frozen
legacy engine's visited set), counting shared substructure once.
"""

from __future__ import annotations

import sys


def deep_sizeof(obj, seen: set[int] | None = None) -> int:
    """Approximate deep memory footprint of a (mostly-tuple) structure.

    Shared substructure is counted once (by object identity), which is
    exactly what makes the measurement interesting for the visited set:
    hash-consed snapshots share their guts, the historical deep-tuple
    keys did not.  Used by the explorer-throughput benchmark to record
    visited-set memory before/after interning.
    """
    if seen is None:
        seen = set()
    ident = id(obj)  # repro: allow[determinism] dedup by object identity is the measurement (shared guts count once); sizes never leave this process
    if ident in seen:
        return 0
    seen.add(ident)
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            size += deep_sizeof(item, seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_sizeof(key, seen)
            size += deep_sizeof(value, seen)
    return size
