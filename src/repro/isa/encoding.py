"""Enumerable instruction universes ("encoding spaces").

JasperGold explores a *symbolic* instruction memory: every slot ranges over
the full bit-level instruction encoding.  An explicit-state checker must
enumerate candidate instructions instead, so each experiment declares an
:class:`EncodingSpace` -- the set of instructions a symbolic slot may take.

Restricting operand ranges is the explicit-state analogue of the paper's
own domain reductions (4 registers, 4-entry memories, reduced ROB); every
restriction used by a benchmark is recorded in EXPERIMENTS.md.  A proof is
complete *for the declared space*; an attack found in a restricted space is
an attack in any larger space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.isa.instruction import (
    HALT,
    AluOp,
    BranchCond,
    Instruction,
    Opcode,
)


@dataclass(frozen=True)
class EncodingSpace:
    """Operand ranges per opcode; empty ranges exclude the opcode.

    ``instructions()`` enumerates the cartesian products.  The universe
    always contains ``HALT`` when :attr:`halt` is true, so every symbolic
    slot can terminate the program -- this is what lets the model checker's
    lazy concretization prune entire program suffixes.
    """

    loadimm_rd: tuple[int, ...] = ()
    loadimm_imm: tuple[int, ...] = ()
    alu_funcs: tuple[AluOp, ...] = (AluOp.ADD,)
    alu_rd: tuple[int, ...] = ()
    alu_rs1: tuple[int, ...] = ()
    alu_rs2: tuple[int, ...] = ()
    load_rd: tuple[int, ...] = ()
    load_rs: tuple[int, ...] = ()
    load_imm: tuple[int, ...] = (0,)
    lh_rd: tuple[int, ...] = ()
    lh_rs: tuple[int, ...] = ()
    lh_imm: tuple[int, ...] = (0,)
    branch_conds: tuple[BranchCond, ...] = (BranchCond.EQZ,)
    branch_rs: tuple[int, ...] = ()
    branch_off: tuple[int, ...] = ()
    mul_rd: tuple[int, ...] = ()
    mul_rs1: tuple[int, ...] = ()
    mul_rs2: tuple[int, ...] = ()
    halt: bool = True

    def instructions(self) -> tuple[Instruction, ...]:
        """Enumerate the instruction universe, ``HALT`` first.

        ``HALT`` first makes depth-first search visit terminating programs
        early, which keeps counterexamples short.
        """
        universe: list[Instruction] = [HALT] if self.halt else []
        for rd, imm in itertools.product(self.loadimm_rd, self.loadimm_imm):
            universe.append(Instruction(Opcode.LOADIMM, rd, imm))
        for func, rd, rs1, rs2 in itertools.product(
            self.alu_funcs, self.alu_rd, self.alu_rs1, self.alu_rs2
        ):
            universe.append(Instruction(Opcode.ALU, rd, rs1, rs2, int(func)))
        for rd, rs, imm in itertools.product(
            self.load_rd, self.load_rs, self.load_imm
        ):
            universe.append(Instruction(Opcode.LOAD, rd, rs, imm))
        for rd, rs, imm in itertools.product(self.lh_rd, self.lh_rs, self.lh_imm):
            universe.append(Instruction(Opcode.LH, rd, rs, imm))
        for cond, rs, off in itertools.product(
            self.branch_conds, self.branch_rs, self.branch_off
        ):
            universe.append(Instruction(Opcode.BRANCH, rs, off, int(cond)))
        for rd, rs1, rs2 in itertools.product(
            self.mul_rd, self.mul_rs1, self.mul_rs2
        ):
            universe.append(Instruction(Opcode.MUL, rd, rs1, rs2))
        return tuple(universe)

    def size(self) -> int:
        """Number of instructions a symbolic slot ranges over."""
        return len(self.instructions())


def space_tiny() -> EncodingSpace:
    """Smallest space containing the canonical Spectre-style gadget.

    Contains ``branch r0 / load r1, sec(r0) / load r2, 0(r1)`` chains plus
    enough ALU/immediate noise that proofs are not vacuous.  Used by the
    Table 2 comparison and the Table 3 proof rows.
    """
    return EncodingSpace(
        loadimm_rd=(1,),
        loadimm_imm=(3,),
        alu_rd=(1,),
        alu_rs1=(1,),
        alu_rs2=(2,),
        load_rd=(1, 2),
        load_rs=(0, 1),
        load_imm=(0, 3),
        branch_rs=(0,),
        branch_off=(2,),
    )


def space_small() -> EncodingSpace:
    """A wider space for attack hunting on SimpleOoO-class cores."""
    return EncodingSpace(
        loadimm_rd=(1, 2),
        loadimm_imm=(0, 2, 3),
        alu_rd=(1, 2),
        alu_rs1=(1,),
        alu_rs2=(1, 2),
        load_rd=(1, 2),
        load_rs=(0, 1),
        load_imm=(0, 2, 3),
        branch_rs=(0, 1),
        branch_off=(2, 3),
    )


def space_dom() -> EncodingSpace:
    """Space for the DoM-spectre experiment (Table 3, red row).

    The known DoM attack needs a cache-warming load, a branch, a transient
    secret load that *hits*, a transient probe whose hit/miss depends on the
    secret, and a committed reconvergence load (speculative-interference
    pattern [6, 21]); imm 0/2/3 and registers r0..r2 cover all of them.
    """
    return EncodingSpace(
        loadimm_rd=(),
        loadimm_imm=(),
        alu_rd=(),
        load_rd=(1, 2),
        load_rs=(0, 1),
        load_imm=(0, 2, 3),
        branch_rs=(0,),
        branch_off=(3,),
    )


def space_mul() -> EncodingSpace:
    """Space for the Ridecore-like superscalar core (RV32IM flavour)."""
    return EncodingSpace(
        loadimm_rd=(1,),
        loadimm_imm=(2, 3),
        load_rd=(1, 2),
        load_rs=(0, 1),
        load_imm=(0, 2, 3),
        branch_rs=(0,),
        branch_off=(2,),
        mul_rd=(1,),
        mul_rs1=(1,),
        mul_rs2=(1, 2),
    )


def space_boom() -> EncodingSpace:
    """Space for the BoomLike §7.1.4 attack enumeration.

    ``LH`` immediates include an odd byte address aimed at the secret region
    (misalignment source) and ``LOAD`` immediates include an out-of-range
    word address (illegal-access source), mirroring the paper's found
    attacks; the branch enables the classic Spectre source.
    """
    return EncodingSpace(
        load_rd=(1, 2),
        load_rs=(0, 1),
        load_imm=(0, 3, 6),
        lh_rd=(1,),
        lh_rs=(0,),
        lh_imm=(2, 5),
        branch_rs=(0,),
        branch_off=(2, 3),
    )


def space_fig2(extra_reg: bool = False) -> EncodingSpace:
    """Minimal space for the Fig. 2 structure-size sweeps.

    Kept very small because the ROB sweep couples instruction-memory depth
    to ROB capacity (see EXPERIMENTS.md, divergence D3).
    """
    load_rd = (1, 2) if extra_reg else (1,)
    return EncodingSpace(
        load_rd=load_rd,
        load_rs=(0, 1),
        load_imm=(0, 3),
        branch_rs=(0,),
        branch_off=(2,),
    )


#: Named presets, for bench harness reporting.
PRESETS = {
    "tiny": space_tiny,
    "small": space_small,
    "dom": space_dom,
    "mul": space_mul,
    "boom": space_boom,
    "fig2": space_fig2,
}
