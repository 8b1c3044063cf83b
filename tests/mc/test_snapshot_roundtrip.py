"""Snapshot/restore round-trip identity across every snapshot producer.

The state engine's visited closure, restore discipline and hash-consing
all assume that ``snapshot`` is a *fixpoint* under ``restore``:

    restore(s); snapshot() == s

for every snapshot ``s`` any producer emits along any reachable path
(interning keys on that equality), and likewise for the tagged-word form
(``snapshot_words``/``restore_words``).  This suite drives all five
producers (both products, the OoO core, the in-order core, the ISA
machine -- plus their constituents, ContractShadowLogic and DataCache,
via the product paths) through real programs, including the
ShadowProduct seq-rebasing path where commits advance the rebase origin
mid-flight.
"""

from __future__ import annotations

import pytest

from repro.core.contracts import sandboxing
from repro.core.products import BaselineProduct, ShadowProduct
from repro.events import FetchBundle
from repro.isa.instruction import HALT, Instruction, Opcode, alu, branch, load, loadimm
from repro.isa.machine import IsaMachine
from repro.isa.params import MachineParams
from repro.mc.packed import AtomTable, PackedCodec
from repro.uarch.config import CacheConfig, Defense
from repro.uarch.inorder import InOrderCore
from repro.uarch.simple_ooo import simple_ooo

PARAMS = MachineParams(imem_size=4)

#: A program with a branch, loads and arithmetic: enough to move every
#: piece of producer state (ROB, latches, predictor occurrences, cache).
PROGRAM = (
    load(1, 0, 3),
    branch(1, 2),
    load(2, 1, 0),
    HALT,
)

DMEM_PAIR = ((0, 0, 1, 0), (0, 0, 1, 1))


def _fetch(program, pc, predicted=False):
    inst = program[pc] if 0 <= pc < len(program) else HALT
    taken = predicted if inst.op == Opcode.BRANCH else None
    return FetchBundle(pc=pc, inst=inst, predicted_taken=taken)


def _assert_fixpoint(snapshot, restore, snap, label):
    restore(snap)
    again = snapshot()
    assert again == snap, label


def _drive_product(product, cycles=12):
    """Step a product over PROGRAM, checking the fixpoint every cycle."""
    product.reset(DMEM_PAIR)
    snaps = [product.snapshot()]
    for cycle in range(cycles):
        requests = product.fetch_requests()
        bundles = [None] * len(product.machines)
        for req in requests:
            bundles[req.slot] = _fetch(PROGRAM, req.pc, predicted=True)
        result = product.step_cycle(bundles)
        snap = product.snapshot()
        snaps.append(snap)
        _assert_fixpoint(
            product.snapshot, product.restore, snap, f"cycle {cycle}"
        )
        if result.failed or result.pruned or product.quiescent():
            break
    # Re-restoring an *early* snapshot after later mutation must also be
    # a fixpoint (the DFS restores in arbitrary stack order).
    for index, snap in enumerate(snaps):
        _assert_fixpoint(
            product.snapshot, product.restore, snap, f"replayed snap {index}"
        )
    return snaps


def test_shadow_product_roundtrip_including_seq_rebase():
    product = ShadowProduct(
        lambda: simple_ooo(Defense.NONE, params=PARAMS), sandboxing()
    )
    snaps = _drive_product(product)
    # The run must exercise the rebasing path: some snapshot with in-flight
    # instructions after at least one commit (non-zero rebased next_seq).
    assert any(snap[0][8] for snap in snaps), "no in-flight ROB state seen"


def test_shadow_product_roundtrip_with_cache():
    cache = CacheConfig(n_sets=1, block_words=2, hit_latency=1, miss_latency=3)
    product = ShadowProduct(
        lambda: simple_ooo(Defense.DOM_SPECTRE, params=PARAMS, cache=cache),
        sandboxing(),
    )
    snaps = _drive_product(product)
    assert any(snap[0][7] is not None for snap in snaps), "cache state missing"


def test_baseline_product_roundtrip():
    product = BaselineProduct(
        lambda: simple_ooo(Defense.NONE, params=PARAMS), sandboxing()
    )
    _drive_product(product)


def test_ooo_core_roundtrip():
    core = simple_ooo(Defense.NONE, params=PARAMS)
    core.reset(DMEM_PAIR[0])
    snaps = [core.snapshot()]
    for _ in range(10):
        pc = core.poll_fetch()
        bundle = None if pc is None else _fetch(PROGRAM, pc, predicted=True)
        core.step(bundle)
        snap = core.snapshot()
        snaps.append(snap)
        _assert_fixpoint(core.snapshot, core.restore, snap, "ooo")
        if core.halted:
            break
    for snap in snaps:
        _assert_fixpoint(core.snapshot, core.restore, snap, "ooo replay")


def _assert_words_fixpoint(machine, atoms, label):
    """``restore_words(snapshot_words())`` is a fixpoint of the live state.

    Restoring the words must leave the object snapshot unchanged, and
    re-flattening must give the same words.
    """
    snap = machine.snapshot()
    words: list[int] = []
    machine.snapshot_words(words, atoms)
    assert machine.restore_words(words, 0, atoms) == len(words), label
    assert machine.snapshot() == snap, label
    again: list[int] = []
    machine.snapshot_words(again, atoms)
    assert again == words, label


@pytest.mark.parametrize("machine_cls", [InOrderCore, IsaMachine])
def test_sequential_machines_roundtrip(machine_cls):
    machine = machine_cls(PARAMS)
    machine.reset(DMEM_PAIR[0])
    atoms = AtomTable()
    snaps = [machine.snapshot()]
    bases = []
    for _ in range(10):
        pc = machine.poll_fetch()
        bundle = None if pc is None else _fetch(PROGRAM, pc)
        machine.step(bundle)
        bases.append(machine.seq_base())
        _assert_words_fixpoint(machine, atoms, "seq words")
        snap = machine.snapshot()
        snaps.append(snap)
        _assert_fixpoint(machine.snapshot, machine.restore, snap, "seq")
        if machine.halted:
            break
    for snap in snaps:
        _assert_fixpoint(machine.snapshot, machine.restore, snap, "seq replay")
        _assert_words_fixpoint(machine, atoms, "seq words replay")
    if machine_cls is InOrderCore:
        # The latch rebase must actually shift sequence numbers.
        assert any(bases), "no non-zero latch rebase seen"
    else:
        # The ISA machine keeps its sequence count absolute.
        assert not any(bases)


def test_baseline_product_packed_roundtrip():
    """The four-machine product round-trips through ``PackedCodec``:
    restoring a blob reproduces the object snapshot, and blob equality
    coincides with object-snapshot equality."""
    product = BaselineProduct(
        lambda: simple_ooo(Defense.NONE, params=PARAMS), sandboxing()
    )
    codec = PackedCodec(product)
    snaps = _drive_product(product)
    # Lockstep ISA traces keep the pending-observation queues empty on
    # this program; add a state with a one-sided queue explicitly.
    product.restore(snaps[-1])
    product.checker_restore(((("load", 1), ("exc", "illegal")), ()))
    snaps.append(product.snapshot())
    blobs = []
    for index, snap in enumerate(snaps):
        product.restore(snap)
        blob = codec.snapshot()
        product.reset(DMEM_PAIR)
        codec.restore(blob)
        assert product.snapshot() == snap, f"snap {index}"
        assert codec.snapshot() == blob, f"snap {index}"
        blobs.append(blob)
    assert len(set(blobs)) == len(set(snaps))


def test_equal_words_across_machine_classes_get_distinct_sids():
    """An ISA row and an OoO row with equal words never share a sid, so
    they can never share a memoized transition; equal rows of one class
    do share one."""
    pytest.importorskip("numpy")
    from repro.mc.vector import VectorEngine

    product = BaselineProduct(
        lambda: simple_ooo(Defense.NONE, params=PARAMS), sandboxing()
    )
    engine = VectorEngine(product)
    product.reset(DMEM_PAIR)
    isa0, _, core0, _ = product.machines
    words: list[int] = []
    isa0.snapshot_words(words, engine.atoms)
    core0.snapshot_words = lambda out, atoms: out.extend(words)
    isa_sid = engine._intern_machine(0)
    core_sid = engine._intern_machine(2)
    assert engine._sid_words[isa_sid] == engine._sid_words[core_sid]
    assert isa_sid != core_sid
    # Both ISA machines sit at their reset state: one class, one sid.
    assert engine._intern_machine(1) == isa_sid


def test_equal_snapshots_intern_to_one_object():
    from repro.mc.intern import InternTable

    core = simple_ooo(Defense.NONE, params=PARAMS)
    core.reset(DMEM_PAIR[0])
    table = InternTable()
    first, first_id = table.intern(core.snapshot())
    core.restore(first)
    second, second_id = table.intern(core.snapshot())
    assert second is first and second_id == first_id
    assert len(table) == 1
