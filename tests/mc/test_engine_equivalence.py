"""Old-vs-new state-engine equivalence over real benchmark grid slices.

The explorer (the memoized vector engine over interned word rows) must
be *bit-identical* to the frozen pre-overhaul object engine
(:mod:`repro.mc.legacy`): same verdicts, same counterexamples, same
``SearchStats`` -- over representative slices of
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


@pytest.mark.parametrize("slice_name", sorted(SLICES))
def test_new_engine_matches_legacy_bit_for_bit(slice_name):
    """The vector engine must reproduce the legacy search bit for bit,
    on every slice."""
    units = SLICES[slice_name]()
    assert units, slice_name
    for unit in units:
        old = verify_legacy(unit.task)
        new = verify(unit.task)
        label = f"{slice_name}:{'/'.join(unit.key)}"
        assert new.kind == old.kind, label
        assert new.stats == old.stats, label
        assert new.counterexample == old.counterexample, label
