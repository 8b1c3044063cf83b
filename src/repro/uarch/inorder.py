"""Sodor-like two-stage in-order core.

Table 1: "2-stage pipeline, 1-cycle memory".  The core executes the
sequential instruction stream with no speculation beyond the fall-through
prefetch (a prefetched wrong-path instruction after a taken branch is
discarded *before* executing, so it has no microarchitectural side
effects).  Taken branches therefore cost one bubble -- a timing effect that
depends only on branch outcomes, which both contracts constrain, so the
core is secure and the verification scheme can prove it.
"""

from __future__ import annotations

from repro.events import CommitRecord, CycleOutput, FetchBundle
from repro.isa.params import MachineParams
from repro.isa.semantics import execute
from repro.uarch.config import CoreConfig


class InOrderCore:
    """Two-stage (fetch, execute/commit) in-order pipeline."""

    name = "Sodor-like"

    def __init__(self, params: MachineParams):
        self.params = params
        # A config object keeps the machine-driving protocol uniform; the
        # in-order core never consults the branch-predictor oracle.
        self.config = CoreConfig(params=params, predictor="not_taken")
        self._dmem: tuple[int, ...] = (0,) * params.mem_size
        self._regs = params.reset_regs()
        self._fetch_pc = 0
        self._latch: tuple[int, object, int] | None = None  # (pc, inst, seq)
        self._halted = False
        self._next_seq = 0

    def reset(self, dmem: tuple[int, ...]) -> None:
        """Reset to the architectural initial state with this data memory."""
        if len(dmem) != self.params.mem_size:
            raise ValueError("data memory image has the wrong size")
        self._dmem = tuple(dmem)
        self._regs = self.params.reset_regs()
        self._fetch_pc = 0
        self._latch = None
        self._halted = False
        self._next_seq = 0

    @property
    def halted(self) -> bool:
        """Whether the machine has architecturally stopped."""
        return self._halted

    @property
    def regs(self) -> tuple[int, ...]:
        """Architectural register file."""
        return self._regs

    def poll_fetch(self) -> int | None:
        """Address fetched this cycle (``None`` once halted)."""
        return None if self._halted else self._fetch_pc

    def fetch_occurrence(self, pc: int) -> int:
        """Predictor-oracle index (unused: the core does not predict)."""
        return 0

    def min_inflight_seq(self) -> int | None:
        """Oldest in-flight sequence number (the single pipeline latch)."""
        return self._latch[2] if self._latch is not None else None

    def max_inflight_seq(self) -> int | None:
        """Youngest in-flight sequence number."""
        return self.min_inflight_seq()

    def step(self, fetch: FetchBundle | None) -> CycleOutput:
        """Advance one clock cycle: execute the latch, refill from fetch."""
        if self._halted:
            return CycleOutput(commits=(), membus=(), halted=True)
        commits: tuple[CommitRecord, ...] = ()
        membus: tuple[int, ...] = ()
        redirect: int | None = None
        if self._latch is not None:
            pc, inst, seq = self._latch
            result = execute(inst, pc, self._regs, self._dmem, self.params)
            commits = (
                CommitRecord(
                    seq=seq,
                    pc=pc,
                    inst=inst,
                    wb=None if result.exception else result.wb_value,
                    addr=result.addr,
                    taken=result.taken,
                    mul_ops=result.mul_ops,
                    exception=result.exception,
                ),
            )
            if result.mem_word is not None and result.exception is None:
                membus = (result.mem_word,)
            if result.wb_reg is not None and result.wb_value is not None:
                if result.exception is None:
                    regs = list(self._regs)
                    regs[result.wb_reg] = result.wb_value
                    self._regs = tuple(regs)
            if result.halt:
                self._halted = True
            elif result.target != pc + 1:
                redirect = result.target  # taken branch: kill the prefetch
        if self._halted:
            self._latch = None
        elif redirect is not None:
            self._latch = None  # one-cycle bubble
            self._fetch_pc = redirect
        elif fetch is not None:
            self._latch = (fetch.pc, fetch.inst, self._next_seq)
            self._next_seq += 1
            self._fetch_pc = fetch.pc + 1
        else:
            self._latch = None  # clock-gated fetch (phase-2 pause)
        return CycleOutput(commits=commits, membus=membus, halted=self._halted)

    def seq_base(self) -> int:
        """Rebase origin for sequence numbers (see the OoO core)."""
        return self._latch[2] if self._latch is not None else self._next_seq

    def snapshot(self) -> tuple:
        """Canonical hashable state (sequence numbers rebased)."""
        base = self.seq_base()
        latch = None
        if self._latch is not None:
            pc, inst, seq = self._latch
            latch = (pc, inst, seq - base)
        return (
            self._regs,
            self._fetch_pc,
            latch,
            self._halted,
            self._next_seq - base,
        )

    def restore(self, snap: tuple) -> None:
        """Restore a state produced by :meth:`snapshot`."""
        (
            self._regs,
            self._fetch_pc,
            self._latch,
            self._halted,
            self._next_seq,
        ) = snap

    def snapshot_words(self, out: list, atoms) -> None:
        """Append the state as tagged words (``repro.mc.packed``).

        Same canonical content as :meth:`snapshot` (same rebasing): the
        register file and the rebased latch intern as atoms, the rest
        packs inline.  Fixed width: five words.
        """
        latch = self._latch
        base = latch[2] if latch is not None else self._next_seq
        out.extend(
            (
                (atoms.id_of(self._regs) << 2) | 2,
                self._fetch_pc << 2,
                1
                if latch is None
                else (atoms.id_of((latch[0], latch[1], latch[2] - base)) << 2) | 2,
                4 if self._halted else 0,
                (self._next_seq - base) << 2,
            )
        )

    def restore_words(self, words, pos: int, atoms) -> int:
        """Restore from :meth:`snapshot_words` output; returns next pos."""
        values = atoms.values
        self._regs = values[words[pos] >> 2]
        self._fetch_pc = words[pos + 1] >> 2
        word = words[pos + 2]
        self._latch = None if word == 1 else values[word >> 2]
        self._halted = bool(words[pos + 3] >> 2)
        self._next_seq = words[pos + 4] >> 2
        return pos + 5
