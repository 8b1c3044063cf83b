"""Every machine step reads data memory at the word it reports, or not at all.

The transition kernel (:mod:`repro.mc.vector`) shares one machine step
across every data memory that agrees at the word the step reports in
``dmem_read`` (and across *all* memories when it reports ``None``).  That
is exact only if ``step`` is a pure function of (machine words, fetch
bundle, the value at ``dmem_read``).  This suite drives seeded random
programs -- misaligned ``LH`` and out-of-range ``LOAD`` included --
through every machine family and checks, at every cycle:

- a recording memory shows the step touched exactly ``{dmem_read}``, or
  nothing;
- restoring the same words and stepping under two memories that agree
  at that word (any two memories when it is ``None``) gives identical
  ``CycleOutput``s and identical post-step words.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.events import FetchBundle
from repro.isa.instruction import (
    HALT,
    AluOp,
    BranchCond,
    Opcode,
    alu,
    branch,
    lh,
    load,
    loadimm,
    mul,
)
from repro.isa.machine import IsaMachine
from repro.isa.params import MachineParams
from repro.mc.packed import AtomTable
from repro.uarch.boom import boom, boom_params
from repro.uarch.config import Defense
from repro.uarch.inorder import InOrderCore
from repro.uarch.simple_ooo import simple_ooo
from repro.uarch.superscalar import ridecore

PARAMS = MachineParams(value_bits=2, imem_size=6)

MACHINES = {
    "isa": lambda: IsaMachine(PARAMS),
    "sodor": lambda: InOrderCore(PARAMS),
    "simple-ooo-delay-spectre": lambda: simple_ooo(Defense.DELAY_SPECTRE, PARAMS),
    "simple-ooo-dom-spectre": lambda: simple_ooo(
        Defense.DOM_SPECTRE, PARAMS, rob_size=8
    ),
    "boom-unwrapped": lambda: boom(boom_params(imem_size=6)),
    "ridecore": lambda: ridecore(PARAMS),
}

PROGRAMS = 40
MAX_CYCLES = 40


class RecordingMemory(tuple):
    """A data-memory image that records every word read from it."""

    def __new__(cls, values):
        memory = super().__new__(cls, values)
        memory.reads = set()
        return memory

    def __getitem__(self, index):
        self.reads.add(index)
        return tuple.__getitem__(self, index)

    def __iter__(self):
        self.reads.update(range(len(self)))
        return tuple.__iter__(self)


def _instruction(rng: random.Random, params: MachineParams):
    def reg():
        return rng.randrange(params.n_regs)

    kind = rng.randrange(7)
    if kind == 0:
        return loadimm(reg(), rng.randrange(params.value_domain))
    if kind == 1:
        return alu(reg(), reg(), reg(), rng.choice((AluOp.ADD, AluOp.XOR)))
    if kind == 2:
        return mul(reg(), reg(), reg())
    if kind == 3:
        # Offsets past the memory reach the illegal path on unwrapped
        # parameters and the wrap-around word on wrapped ones.
        return load(reg(), reg(), rng.randrange(-1, params.mem_size + 3))
    if kind == 4:
        # Byte addresses: odd ones are misaligned.
        return lh(reg(), reg(), rng.randrange(-1, 2 * params.mem_size + 3))
    if kind == 5:
        return branch(
            reg(), rng.randrange(-2, 4), rng.choice((BranchCond.EQZ, BranchCond.NEZ))
        )
    return HALT


def _bundle(machine, program, rng: random.Random):
    pc = machine.poll_fetch()
    if pc is None:
        return None
    inst = program[pc] if 0 <= pc < len(program) else HALT
    predicted = None
    config = getattr(machine, "config", None)
    if inst.op == Opcode.BRANCH and getattr(config, "predictor", None) == "nondet":
        predicted = rng.random() < 0.5
    return FetchBundle(pc=pc, inst=inst, predicted_taken=predicted)


def _words(machine, atoms) -> tuple:
    out: list[int] = []
    machine.snapshot_words(out, atoms)
    return tuple(out)


def _step_from(machine, words, atoms, memory, bundle):
    """Restore ``words``, bind ``memory``, step once; (output, read, words)."""
    machine.restore_words(words, 0, atoms)
    machine._dmem = memory
    machine.dmem_read = None
    out = machine.step(bundle)
    return out, machine.dmem_read, _words(machine, atoms)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_step_reads_only_the_reported_word(name):
    machine = MACHINES[name]()
    params = machine.params
    domain = params.value_domain
    atoms = AtomTable()
    rng = random.Random(f"dmem-read:{name}")
    reads = 0
    exceptions: Counter = Counter()
    for _ in range(PROGRAMS):
        program = [_instruction(rng, params) for _ in range(params.imem_size)]
        dmem = tuple(rng.randrange(domain) for _ in range(params.mem_size))
        machine.reset(dmem)
        for _ in range(MAX_CYCLES):
            bundle = _bundle(machine, program, rng)
            before = _words(machine, atoms)
            recording = RecordingMemory(dmem)
            out, word, after = _step_from(machine, before, atoms, recording, bundle)
            assert recording.reads == (set() if word is None else {word}), (
                name, program, bundle,
            )
            # A memory differing from ``dmem`` at every word but ``word``.
            other = tuple(
                value if index == word
                else (value + 1 + rng.randrange(domain - 1)) % domain
                for index, value in enumerate(dmem)
            )
            assert _step_from(machine, before, atoms, other, bundle) == (
                out, word, after,
            ), (name, program, bundle)
            # Continue the trajectory under the real memory.
            machine.restore_words(after, 0, atoms)
            machine._dmem = dmem
            reads += word is not None
            exceptions.update(c.exception for c in out.commits if c.exception)
            if out.halted:
                break
    # The programs really exercise loads, faulting ones included.
    assert reads > 0
    assert exceptions["misaligned"] > 0
    if not params.wrap_addresses:
        assert exceptions["illegal"] > 0
