"""The search's memo heap stays out of the cyclic collector's path.

Two properties: ``Explorer.run`` raises the generation-2 threshold only
while it searches (every exit restores the caller's collector settings),
and the kernel's long-lived per-state tables -- OoO ROB atoms and the
per-sid fact rows -- hold only ints, so a collection untracks them.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import _GC_FULL_THRESHOLD, Explorer, SearchLimits
from repro.uarch.config import Defense
from repro.uarch.ooo_base import ENTRY_FIELDS, OoOCore
from repro.uarch.simple_ooo import simple_ooo

PARAMS = MachineParams(imem_size=3)

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)

#: (defense, limits, expected outcome kind) per way a search ends.
_ENDINGS = {
    "proof": (Defense.DELAY_FUTURISTIC, SearchLimits(timeout_s=90), "proved"),
    "attack": (Defense.NONE, SearchLimits(timeout_s=90), "attack"),
    "max-states": (Defense.DELAY_FUTURISTIC, SearchLimits(max_states=50), "timeout"),
}


def _explorer(defense, limits=SearchLimits(timeout_s=90)) -> Explorer:
    task = VerificationTask(
        core_factory=lambda: simple_ooo(defense, params=PARAMS),
        contract=sandboxing(),
        space=TINY,
        limits=limits,
    )
    return Explorer(task.build_product(), task.space, task.build_roots(), limits)


@pytest.fixture
def collector():
    """Run with a non-default threshold, and put the host's back after."""
    saved = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(500, 7, 3)
    yield
    gc.set_threshold(*saved[0])
    if saved[1]:
        gc.enable()
    else:
        gc.disable()


def _watch_thresholds(explorer: Explorer, seen: list) -> None:
    engine = explorer._vector
    transition = engine.transition

    def watched(state, bundles):
        seen.append(gc.get_threshold())
        return transition(state, bundles)

    engine.transition = watched


@pytest.mark.parametrize("ending", list(_ENDINGS))
@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_settings(collector, ending, enabled):
    defense, limits, kind = _ENDINGS[ending]
    if not enabled:
        gc.disable()
    before = gc.get_threshold(), gc.isenabled()
    explorer = _explorer(defense, limits)
    seen: list = []
    _watch_thresholds(explorer, seen)
    assert explorer.run().kind == kind
    assert (gc.get_threshold(), gc.isenabled()) == before
    # Inside the search only the generation-2 threshold was raised.
    assert seen and set(seen) == {(500, 7, _GC_FULL_THRESHOLD)}


def test_run_keeps_a_higher_caller_threshold(collector):
    gc.set_threshold(500, 7, 5 * _GC_FULL_THRESHOLD)
    explorer = _explorer(Defense.NONE)
    seen: list = []
    _watch_thresholds(explorer, seen)
    assert explorer.run().attacked
    assert set(seen) == {(500, 7, 5 * _GC_FULL_THRESHOLD)}
    assert gc.get_threshold() == (500, 7, 5 * _GC_FULL_THRESHOLD)


def test_run_restores_the_collector_settings_on_an_exception(collector):
    before = gc.get_threshold(), gc.isenabled()
    explorer = _explorer(Defense.DELAY_FUTURISTIC)
    engine = explorer._vector
    transition = engine.transition
    calls = 0

    def failing(state, bundles):
        nonlocal calls
        calls += 1
        if calls == 20:
            raise RuntimeError("injected")
        return transition(state, bundles)

    engine.transition = failing
    with pytest.raises(RuntimeError, match="injected"):
        explorer.run()
    assert calls == 20
    assert (gc.get_threshold(), gc.isenabled()) == before


def test_rob_atoms_and_sid_facts_are_untracked():
    """After a collection no ROB atom and no per-sid fact row is tracked:
    both hold only ints, ``None`` and bools, so the collector skips them
    for the rest of the run."""
    explorer = _explorer(Defense.DELAY_FUTURISTIC)
    assert explorer.run().proved
    engine = explorer._vector
    gc.collect()
    values = engine.atoms.values
    robs = []
    for slot, machine in enumerate(engine._machines):
        if not isinstance(machine, OoOCore):
            continue
        # Words: 7 scalar/regs words, the cache atom if any, then the ROB.
        pos = 8 if machine._cache is not None else 7
        robs.extend(values[words[pos] >> 2] for words in engine._sid_ids[slot])
    assert robs and max(map(len, robs)) > 1
    for rob in robs:
        assert not gc.is_tracked(rob), rob
        for entry in rob:
            assert len(values[entry]) == len(ENTRY_FIELDS)
    assert engine._sid_info
    for row in engine._sid_info:
        assert len(row) == 5
        assert not gc.is_tracked(row), row
