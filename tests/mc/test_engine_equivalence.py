"""Old-vs-new state-engine equivalence over real benchmark grid slices.

The overhauled explorer (interned snapshots, restore discipline, cached
environment hashes) must be *bit-identical* to the frozen pre-overhaul
engine (:mod:`repro.mc.legacy`) in default mode: same verdicts, same
counterexamples, same ``SearchStats`` -- over representative slices of
every campaign-backed experiment (fig2 sweeps, the fetch-gate ablation,
the Table-2 scheme grid).  This is the contract that lets every committed
benchmark number and every logged campaign record keep its meaning across
the engine swap.
"""

from __future__ import annotations

import pytest

from repro.bench import ablation, fig2, table2
from repro.bench.configs import QUICK
from repro.mc.legacy import verify_legacy
from repro.core.verifier import verify


def _fig2_mini_units():
    return fig2.units(QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2, 4))


def _ablation_mini_units():
    return ablation.units(QUICK, workloads=ablation.WORKLOADS[:2])


def _table2_units():
    return table2.units(QUICK)


SLICES = {
    "fig2-mini": _fig2_mini_units,
    "ablation-mini": _ablation_mini_units,
    "table2-grid": _table2_units,
}


ENGINES = ("object", "packed", "vector")


@pytest.mark.parametrize("slice_name", sorted(SLICES))
def test_new_engine_matches_legacy_bit_for_bit(slice_name, monkeypatch):
    """All three state engines (object tuples, packed word arrays, the
    numpy vector engine) must reproduce the legacy search bit for bit,
    on every slice."""
    units = SLICES[slice_name]()
    assert units, slice_name
    for unit in units:
        old = verify_legacy(unit.task)
        for engine in ENGINES:
            monkeypatch.setenv("REPRO_MC_ENGINE", engine)
            new = verify(unit.task)
            label = f"{slice_name}:{'/'.join(unit.key)}:{engine}"
            assert new.kind == old.kind, label
            assert new.stats == old.stats, label
            assert new.counterexample == old.counterexample, label


def test_engine_selection_follows_capability(monkeypatch):
    """Auto-selection runs every Table-2 cell -- shadow products and the
    four-machine baseline, over every core -- on the vector engine when
    numpy is importable, and on the packed engine otherwise.  The object
    loop stays reachable through ``REPRO_MC_ENGINE=object``, which the
    legacy bit-identity test above exercises on every slice."""
    from repro.mc import packed
    from repro.mc.explorer import Explorer
    from repro.mc.packed import numpy_available

    monkeypatch.delenv("REPRO_MC_ENGINE", raising=False)
    expected = "vector" if numpy_available() else "packed"
    units = table2.units(QUICK)
    assert len(units) == 10
    for unit in units:
        task = unit.task
        product = task.build_product()
        assert product.packed_capable and product.vector_capable, unit.key
        explorer = Explorer(product, task.space, task.build_roots(), task.limits)
        assert explorer.engine == expected, unit.key

    # Without numpy the vector request degrades to the packed engine --
    # simulated by blanking the cached availability probe, so this holds
    # on numpy-equipped CI hosts too.
    monkeypatch.setattr(packed, "_numpy_present", False)
    for scheme in ("shadow", "baseline"):
        task = next(u for u in units if u.key[0] == scheme).task
        degraded = Explorer(
            task.build_product(), task.space, task.build_roots(), task.limits
        )
        assert degraded.engine == "packed", scheme
        monkeypatch.setenv("REPRO_MC_ENGINE", "vector")
        degraded = Explorer(
            task.build_product(), task.space, task.build_roots(), task.limits
        )
        assert degraded.engine == "packed", scheme
        monkeypatch.delenv("REPRO_MC_ENGINE")


@pytest.mark.parametrize("engine", ENGINES)
def test_seeded_shards_match_legacy_monolith(engine, monkeypatch):
    """Sub-root expansion + seeded shards of each engine, merged in
    serial LIFO order, still reproduce the legacy monolithic search on a
    single-root fig2 cell (the sub-root scheduler's workload)."""
    from repro.campaign.scheduler import _merge_serial, _prepend_prelude
    from repro.mc.explorer import Explorer

    monkeypatch.setenv("REPRO_MC_ENGINE", engine)
    task = fig2.point_task(fig2.PANELS[0], "rob", 2, QUICK)
    [root] = task.build_roots()[-1:]
    task.roots = [root]
    legacy = verify_legacy(task)
    expansion = Explorer(
        task.build_product(), task.space, [root], task.limits
    ).expand_root()
    assert expansion.decided is None
    outcomes = [
        Explorer(
            task.build_product(), task.space, [root], task.limits
        ).run_seeded([entry])
        for entry in expansion.entries
    ]
    merged = _prepend_prelude(expansion, _merge_serial(outcomes))
    assert merged.kind == legacy.kind
    assert merged.stats == legacy.stats
    assert merged.counterexample == legacy.counterexample
