"""The single-cycle ISA machine ("1-cycle processor" in Fig. 1a).

Executes exactly one instruction per cycle, architecturally, with no
speculation and no timing variation.  The baseline verification scheme
instantiates two of these to enforce the contract constraint check; the
differential test-suite uses it as the functional-correctness oracle for
every out-of-order core.
"""

from __future__ import annotations

from repro.events import CommitRecord, CycleOutput, FetchBundle
from repro.isa.params import MachineParams
from repro.isa.semantics import execute


class IsaMachine:
    """Sequential reference machine over :func:`repro.isa.semantics.execute`.

    The machine interface (``poll_fetch`` / ``step`` / ``snapshot`` /
    ``restore``, and the ``snapshot_words`` / ``restore_words`` pair the
    transition kernel steps through) matches the out-of-order cores so
    that verification products can drive either kind uniformly.
    """

    def __init__(self, params: MachineParams):
        self.params = params
        self._pc = 0
        self._regs = params.reset_regs()
        self._dmem: tuple[int, ...] = (0,) * params.mem_size
        #: Data-memory word read by the one instruction a ``step``
        #: executes (``result.mem_word``), or ``None``; the transition
        #: kernel clears it before a step and keys shared steps on it.
        self.dmem_read: int | None = None
        self._halted = False
        self._seq = 0

    def reset(self, dmem: tuple[int, ...]) -> None:
        """Reset architectural state with the given data-memory image."""
        if len(dmem) != self.params.mem_size:
            raise ValueError("data memory image has the wrong size")
        self._pc = 0
        self._regs = self.params.reset_regs()
        self._dmem = tuple(dmem)
        self._halted = False
        self._seq = 0

    @property
    def halted(self) -> bool:
        """Whether the machine has architecturally stopped."""
        return self._halted

    @property
    def regs(self) -> tuple[int, ...]:
        """Architectural register file."""
        return self._regs

    @property
    def pc(self) -> int:
        """Architectural program counter."""
        return self._pc

    def poll_fetch(self) -> int | None:
        """Address to fetch this cycle (``None`` once halted)."""
        return None if self._halted else self._pc

    def fetch_occurrence(self, pc: int) -> int:
        """Predictor-oracle index (unused: the ISA machine never predicts)."""
        return 0

    def step(self, fetch: FetchBundle | None) -> CycleOutput:
        """Execute one instruction (one cycle)."""
        if self._halted or fetch is None:
            return CycleOutput(commits=(), membus=(), halted=self._halted)
        result = execute(fetch.inst, self._pc, self._regs, self._dmem, self.params)
        self.dmem_read = result.mem_word
        record = CommitRecord(
            seq=self._seq,
            pc=self._pc,
            inst=fetch.inst,
            wb=None if result.exception else result.wb_value,
            addr=result.addr,
            taken=result.taken,
            mul_ops=result.mul_ops,
            exception=result.exception,
        )
        membus: tuple[int, ...] = ()
        if result.mem_word is not None and result.exception is None:
            membus = (result.mem_word,)
        if result.wb_reg is not None and result.wb_value is not None:
            regs = list(self._regs)
            regs[result.wb_reg] = result.wb_value
            self._regs = tuple(regs)
        self._seq += 1
        self._pc = result.target
        self._halted = result.halt
        return CycleOutput(commits=(record,), membus=membus, halted=self._halted)

    def snapshot(self) -> tuple:
        """Encode the machine state as a hashable tuple."""
        return (self._pc, self._regs, self._halted, self._seq)

    def restore(self, snap: tuple) -> None:
        """Restore a state produced by :meth:`snapshot`."""
        self._pc, self._regs, self._halted, self._seq = snap

    def seq_base(self) -> int:
        """Rebase origin for sequence numbers: none, ``_seq`` stays absolute.

        The absolute count is part of the snapshot, so states that differ
        only in it stay apart, exactly as in the object snapshot.
        """
        return 0

    def snapshot_words(self, out: list, atoms) -> None:
        """Append the state as tagged words (``repro.mc.packed``).

        Same content as :meth:`snapshot`: pc, halted flag and sequence
        count inline, the register file as an interned atom.
        """
        out.extend(
            (
                self._pc << 2,
                (atoms.id_of(self._regs) << 2) | 2,
                4 if self._halted else 0,
                self._seq << 2,
            )
        )

    def restore_words(self, words, pos: int, atoms) -> int:
        """Restore from :meth:`snapshot_words` output; returns next pos."""
        self._pc = words[pos] >> 2
        self._regs = atoms.values[words[pos + 1] >> 2]
        self._halted = bool(words[pos + 2] >> 2)
        self._seq = words[pos + 3] >> 2
        return pos + 4

    # The drain-tracking queries exist so products can drive ISA machines
    # and out-of-order cores through one protocol; an ISA machine never has
    # instructions in flight.
    def min_inflight_seq(self) -> int | None:
        """Oldest in-flight sequence number (always ``None``: no pipeline)."""
        return None

    def max_inflight_seq(self) -> int | None:
        """Youngest in-flight sequence number (always ``None``)."""
        return None

    def run(self, program, dmem: tuple[int, ...], max_cycles: int = 10_000):
        """Convenience: execute a concrete :class:`Program` to completion.

        Returns the list of :class:`CommitRecord` in commit order.  Raises
        ``RuntimeError`` if the program does not halt within ``max_cycles``
        (e.g. an infinite loop).
        """
        self.reset(dmem)
        records = []
        for _ in range(max_cycles):
            pc = self.poll_fetch()
            if pc is None:
                return records
            out = self.step(FetchBundle(pc, program.fetch(pc), None))
            records.extend(out.commits)
        raise RuntimeError("program did not halt")
