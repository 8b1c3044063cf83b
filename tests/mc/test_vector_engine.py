"""Unit coverage for the vector engine's memos.

The read index: machine steps are shared across secret memories on a
multi-root Table-2 cell, and the cycle memo then hits.

The search-level contract (bit-identical verdicts/stats) lives in
``test_engine_equivalence.py``, the per-root visited set in
``test_root_release.py`` and the word-format round trip in
``test_snapshot_roundtrip.py``; this file owns the memo tables.
"""

from __future__ import annotations

from repro.bench import table2
from repro.bench.configs import QUICK
from repro.mc.explorer import Explorer


# ---------------------------------------------------------------------------
# Read index (machine steps shared across data memories)
# ---------------------------------------------------------------------------
def test_read_index_shares_steps_across_secret_memories():
    """On the multi-root ``shadow/SimpleOoO-S`` cell, fewer real machine
    steps run than the per-memory tables hold entries (the rest were
    bound from the read index), and the cycle memo hits on the shared
    transition ids.  That the search outcome is unchanged is pinned
    against the legacy engine by ``test_engine_equivalence.py``."""
    [unit] = [u for u in table2.units(QUICK) if u.key == ("shadow", "SimpleOoO-S")]
    task = unit.task
    roots = task.build_roots()
    assert len(roots) > 1
    explorer = Explorer(task.build_product(), task.space, roots, task.limits)
    engine = explorer._vector
    calls = 0
    transition = engine.transition

    def counted(state, bundles):
        nonlocal calls
        calls += 1
        return transition(state, bundles)

    engine.transition = counted
    explorer.run()
    bound = sum(len(table) for table in engine._mach_tables.values())
    assert len(engine._trans) < bound
    # Every cycle-memo miss adds one entry; any other call was a hit.
    assert calls > len(engine._cycle_memo)
