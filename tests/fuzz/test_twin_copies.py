"""Twin mode of the shadow product is exact.

:class:`repro.core.products.ShadowProduct` steps only copy 0 while the
two copies cannot differ, and replays the owed bundles onto copy 1 at
the first cycle where they could.  Everything the fuzz oracle reports
must equal a reference product that steps both copies and folds the
shadow logic on every cycle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.contracts import sandboxing
from repro.core.products import FetchRequest, ShadowProduct
from repro.core.shadow import ContractShadowLogic
from repro.events import CycleOutput, FetchBundle
from repro.fuzz.configs import preset_config
from repro.fuzz.generator import ProgramSampler
from repro.fuzz.oracle import TRACE_LEAK, run_trace
from repro.isa.instruction import HALT, Opcode, branch, load, loadimm
from repro.isa.params import MachineParams
from repro.mc.replay import replay
from repro.rand import derive_seed, predictor_bit
from repro.uarch.config import Defense
from repro.uarch.simple_ooo import simple_ooo

TRIALS = 256

PARAMS = MachineParams()

#: The Spectre-v1 gadget: a mispredicted branch shadows a load of the
#: secret word 3 and a load that transmits it.
GADGET = (branch(0, 2), load(1, 0, 3), load(2, 1, 0))

#: Secret pair differing only in word 3.
PAIR = ((0, 0, 0, 0), (0, 0, 0, 1))

#: A predictor seed that predicts the gadget's branch not taken.
NT_SEED = next(s for s in range(64) if not predictor_bit(s, 0, 0))

#: The gadget one slot later, so the secret load issues at cycle 3, and
#: a seed that predicts its branch (now at pc 1) not taken.
LATE_GADGET = (loadimm(3, 0), *GADGET)
LATE_SEED = next(s for s in range(64) if not predictor_bit(s, 1, 0))


class TwoCopyProduct(ShadowProduct):
    """The shadow product without twin mode: both copies step and
    ``fold_cycle`` runs on every cycle."""

    def reset(self, dmem_pair) -> None:
        for machine, dmem in zip(self.machines, dmem_pair):
            machine.reset(dmem)
        self.shadow = ContractShadowLogic(self.contract, gate_fetch=self.gate_fetch)

    def fetch_requests(self) -> list[FetchRequest]:
        gated, pauses = self.shadow.clock_control()
        requests = []
        for slot, machine in enumerate(self.machines):
            pc = None if gated or pauses[slot] else machine.poll_fetch()
            if pc is not None:
                requests.append(
                    FetchRequest(
                        slot, pc, machine.fetch_occurrence(pc), self.predictors[slot]
                    )
                )
        return requests

    def step_cycle(self, bundles):
        pauses = self.shadow.pauses()
        outputs = tuple(
            CycleOutput(commits=(), membus=(), halted=machine.halted)
            if paused
            else machine.step(bundle)
            for machine, paused, bundle in zip(self.machines, pauses, bundles)
        )
        self.last_outputs = outputs
        machine0, machine1 = self.machines
        return self.fold_cycle(
            outputs,
            (machine0.max_inflight_seq(), machine1.max_inflight_seq()),
            (machine0.min_inflight_seq(), machine1.min_inflight_seq()),
            (not pauses[0], not pauses[1]),
        )

    def quiescent(self) -> bool:
        return all(m.halted for m in self.machines) and self.settled()


def _pair(core, contract=None):
    contract = contract or sandboxing()
    return ShadowProduct(core, contract), TwoCopyProduct(core, contract)


def _cycle(product, program, pred_seed):
    """Drive one product cycle; (result, outputs)."""
    bundles: list[FetchBundle | None] = [None, None]
    for req in product.fetch_requests():
        inst = program[req.pc] if 0 <= req.pc < len(program) else HALT
        predicted = None
        if inst.op is Opcode.BRANCH and req.predictor != "none":
            predicted = (
                predictor_bit(pred_seed, req.pc, req.occurrence)
                if req.predictor == "nondet"
                else req.predictor == "taken"
            )
        bundles[req.slot] = FetchBundle(req.pc, inst, predicted)
    result = product.step_cycle(bundles)
    return result, product.last_outputs


def _simple_ooo(defense=Defense.NONE):
    return lambda: simple_ooo(defense=defense, params=PARAMS)


@pytest.mark.parametrize("preset", ["fuzz-mini", "fuzz-boom", "fuzz-defended"])
def test_traces_equal_the_two_copy_reference(preset):
    config = preset_config(preset, seed=11).config
    twin = config.build_product()
    reference = TwoCopyProduct(
        config.core, twin.contract, twin.assumptions, gate_fetch=twin.gate_fetch
    )
    roots = config.build_roots()
    sampler = ProgramSampler(config.space, twin.params, config.generator)
    cycles = 0
    for trial in range(TRIALS):
        rng = random.Random(derive_seed(config.seed, trial))
        program = sampler.fresh(rng)
        root = roots[trial % len(roots)]
        pred_seed = rng.getrandbits(32)
        traces = [
            run_trace(
                product,
                program,
                root.dmem_pair,
                pred_seed,
                max_cycles=config.max_cycles,
                root_label=root.label,
            )
            for product in (twin, reference)
        ]
        assert traces[0] == traces[1], (preset, trial, program, root.label)
        cycles += traces[0].cycles
    # Twin mode really ran: most cycles stepped one copy, and some
    # traces caught copy 1 up.
    assert cycles < twin.steps < 2 * cycles


def test_catch_up_after_a_secret_read_matches_every_later_snapshot():
    """The transient secret load issues at cycle >= 3: copy 1 catches up
    on every owed bundle, and the two products agree from then on."""
    twin, reference = _pair(_simple_ooo())
    twin.reset(PAIR)
    reference.reset(PAIR)
    caught_up = None
    for cycle in range(40):
        steps = twin.steps
        got = _cycle(twin, LATE_GADGET, LATE_SEED)
        assert got == _cycle(reference, LATE_GADGET, LATE_SEED), cycle
        if caught_up is None and twin.steps - steps > 1:
            caught_up = cycle
            # Every cycle before stepped copy 0 alone.
            assert twin.steps - steps == cycle + 2
        if caught_up is not None:
            assert twin.snapshot() == reference.snapshot(), cycle
        if got[0].failed:
            break
    assert caught_up is not None and caught_up >= 3
    assert got[0].failed and got[0].reason == "leakage"


def test_snapshot_mid_twin_equals_the_reference_and_keeps_stepping():
    program = (loadimm(1, 1), loadimm(2, 0), load(3, 1, 0), HALT)
    twin, reference = _pair(_simple_ooo())
    twin.reset(PAIR)
    reference.reset(PAIR)
    for cycle in range(30):
        steps = twin.steps
        assert _cycle(twin, program, 0) == _cycle(reference, program, 0)
        # The program reads only public words: twin mode steps copy 0
        # alone, before and after each snapshot's catch-up.
        assert twin.steps == steps + 1, cycle
        if cycle in (1, 2, 4):
            assert twin.snapshot() == reference.snapshot(), cycle
        assert twin.quiescent() == reference.quiescent()
        if reference.quiescent():
            break
    assert reference.quiescent()
    assert twin.snapshot() == reference.snapshot()


@pytest.mark.parametrize("restore_at", [1, 5])
def test_restore_after_twin_steps_continues_like_the_reference(restore_at):
    """Restoring mid-twin leaves twin mode, whether the restored state
    is one the copies share (cycle 1) or one where they differ (cycle 5,
    after the secret load)."""
    twin, reference = _pair(_simple_ooo())
    twin.reset(PAIR)
    reference.reset(PAIR)
    for _ in range(restore_at):
        _cycle(reference, LATE_GADGET, LATE_SEED)
    mid = reference.snapshot()
    for _ in range(2):
        _cycle(twin, LATE_GADGET, LATE_SEED)
    # Restored copies are rebased (head sequence number 0): restore
    # the reference too, so commit records compare equal.
    twin.restore(mid)
    reference.restore(mid)
    assert twin.snapshot() == mid
    for cycle in range(40):
        got = _cycle(twin, LATE_GADGET, LATE_SEED)
        assert got == _cycle(reference, LATE_GADGET, LATE_SEED), cycle
        assert twin.snapshot() == reference.snapshot(), cycle
        if got[0].failed:
            break
    assert got[0].failed


def test_unequal_bundles_end_twin_mode():
    """A caller may hand the copies different bundles; copy 1 catches up
    and takes its own."""
    program = (loadimm(1, 1), loadimm(2, 0), load(3, 1, 0), HALT)
    twin, reference = _pair(_simple_ooo())
    twin.reset(PAIR)
    reference.reset(PAIR)
    for pc in range(3):
        bundles = [FetchBundle(pc, program[pc], None), None]
        assert twin.step_cycle(bundles) == reference.step_cycle(bundles)
        assert twin.last_outputs == reference.last_outputs
    assert twin.snapshot() == reference.snapshot()


def test_spectre_gadget_counterexample_still_replays():
    twin, reference = _pair(_simple_ooo())
    traces = [run_trace(p, GADGET, PAIR, NT_SEED) for p in (twin, reference)]
    assert traces[0] == traces[1]
    assert traces[0].verdict == TRACE_LEAK
    cex = traces[0].counterexample
    replayed = replay(twin, cex)
    assert replayed == replay(reference, cex)
    assert replayed[-1].result.failed
