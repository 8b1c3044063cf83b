"""Shared out-of-order pipeline.

All three OoO cores (SimpleOoO, Ridecore-like, BoomLike) are instances of
this datapath, differing in configuration and small subclass hooks -- which
is precisely the property the paper exploits when it reuses one piece of
shadow logic across design variants (§5.1).

Pipeline model (per cycle, in order):

1. **Commit**: up to ``commit_width`` DONE instructions retire from the ROB
   head, updating the architectural register file.  A committed ``HALT`` or
   trap squashes everything younger and halts the machine.
2. **Execute**: in-flight operations tick down; completing branches resolve
   (mispredictions squash younger entries and redirect fetch); completing
   memory operations free the single memory unit and fill the cache.
3. **DoM promotion**: a Delay-on-Miss load waiting at the ROB head starts
   its (now non-speculative) DRAM access.
4. **Issue** (width 1): the oldest ready instruction begins execution.
   Operand values come from the youngest older ROB entry writing the
   register (the forwarding network) or from the architectural register
   file.  The defenses hook in here: NoFwd blocks load-to-use forwarding,
   Delay holds memory instructions until they reach the head, DoM probes
   the cache.
5. **Dispatch**: the instruction fetched this cycle (at most one) enters
   the ROB; predicted branches redirect fetch.

Determinism and finiteness
--------------------------
Given a concrete program, data memory and branch-predictor oracle the core
is deterministic.  Snapshots are canonical: sequence numbers are rebased to
the oldest live instruction, so states of looping programs recur and the
model checker's visited-set closure terminates.

Timing channels modeled
-----------------------
- memory-bus address per access (``CycleOutput.membus``),
- commit count per cycle,
- cache hit/miss latency difference and bus visibility (misses only),
- single-memory-unit contention, including squash-recovery penalties: a
  memory operation canceled by a squash occupies the unit for its remaining
  latency (in-flight DRAM burst), and a Delay-on-Miss load squashed while
  waiting tears down its deferred miss request for a miss latency -- the
  port-occupancy asymmetry behind speculative-interference attacks on
  Delay-on-Miss (Behnia et al. [6], SpectreRewind [21]).

Implementation note: ROB entries are plain mutable lists indexed by the
``E_*`` constants (the model checker restores/steps/snapshots millions of
states; attribute-style named tuples measurably dominate the profile).
Snapshots freeze entries into tuples.
"""

from __future__ import annotations

from repro.events import CommitRecord, CycleOutput, FetchBundle
from repro.isa.instruction import Instruction, Opcode
from repro.isa.semantics import execute
from repro.uarch.cache import DataCache
from repro.uarch.config import CoreConfig, Defense

# ROB entry status values.
WAITING = 0
EXECUTING = 1
WAIT_MEM = 2  # Delay-on-Miss load holding the memory unit, DRAM deferred
DONE = 3

# ROB entry field indices (entries are mutable lists; see module docstring).
E_SEQ = 0
E_PC = 1
E_INST = 2
E_STATUS = 3
E_CYCLES = 4
E_VALUE = 5
E_ADDR = 6
E_MEM_WORD = 7
E_PRED_TAKEN = 8
E_TAKEN = 9
E_TARGET = 10
E_EXCEPTION = 11
E_BRANCH_AHEAD = 12
E_MUL_OPS = 13
E_DRAM = 14
_ENTRY_WIDTH = 15

#: Labels for the entry fields, for diagnostics and state flattening.
ENTRY_FIELDS = (
    "seq",
    "pc",
    "inst",
    "status",
    "cycles_left",
    "value",
    "addr",
    "mem_word",
    "pred_taken",
    "taken",
    "target",
    "exception",
    "branch_ahead",
    "mul_ops",
    "dram",
)


# Frozen opcode classes: set membership beats scanning enum tuples in the
# pipeline loops, which run once per ROB entry per cycle of the search.
_DEST_OPS = frozenset(
    (Opcode.LOADIMM, Opcode.ALU, Opcode.LOAD, Opcode.LH, Opcode.MUL)
)
_TWO_SRC_OPS = frozenset((Opcode.ALU, Opcode.MUL))
_MEM_OPS = frozenset((Opcode.LOAD, Opcode.LH))


def dest_reg(inst: Instruction) -> int | None:
    """Destination register of an instruction, if any."""
    if inst.op in _DEST_OPS:
        return inst.a
    return None


def src_regs(inst: Instruction) -> tuple[int, ...]:
    """Source registers an instruction reads."""
    op = inst.op
    if op in _TWO_SRC_OPS:
        return (inst.b, inst.c)
    if op in _MEM_OPS:
        return (inst.b,)
    if op == Opcode.BRANCH:
        return (inst.a,)
    return ()


def _is_memory(inst: Instruction) -> bool:
    return inst.op in _MEM_OPS


class OoOCore:
    """Configurable out-of-order core (see module docstring)."""

    #: Human-readable model name, overridden by subclasses (Table 1).
    name = "ooo"

    def __init__(self, config: CoreConfig):
        self.config = config
        self.params = config.params
        self._cache = DataCache(config.cache) if config.cache else None
        self._dmem: tuple[int, ...] = (0,) * config.params.mem_size
        #: Data-memory word read by the instruction the last ``step``
        #: issued (``result.mem_word`` of its one ``execute`` call), or
        #: ``None``.  Issue width 1 makes this the only word a cycle can
        #: read, so a step is a pure function of (state, fetch bundle,
        #: the value at this word).  Only the transition kernel clears it
        #: (:meth:`repro.mc.vector.VectorEngine._step_miss`); a step that
        #: executes nothing leaves it untouched.
        self.dmem_read: int | None = None
        self._regs = list(config.params.reset_regs())
        self._rob: list[list] = []
        self._next_seq = 0
        self._fetch_pc = 0
        self._fetch_stopped = False
        self._halted = False
        self._mem_seq: int | None = None  # seq owning the memory unit
        self._mem_cancel = 0  # squash-recovery cycles left on the unit
        self._branch_occ: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Machine interface
    # ------------------------------------------------------------------
    def reset(self, dmem: tuple[int, ...]) -> None:
        """Reset to the architectural initial state with this data memory."""
        if len(dmem) != self.params.mem_size:
            raise ValueError("data memory image has the wrong size")
        self._dmem = tuple(dmem)
        self._regs = list(self.params.reset_regs())
        self._rob = []
        self._next_seq = 0
        self._fetch_pc = 0
        self._fetch_stopped = False
        self._halted = False
        self._mem_seq = None
        self._mem_cancel = 0
        self._branch_occ = {}
        if self._cache is not None:
            self._cache.reset()

    @property
    def halted(self) -> bool:
        """Whether the machine has architecturally stopped."""
        return self._halted

    @property
    def regs(self) -> tuple[int, ...]:
        """Architectural (committed) register file."""
        return tuple(self._regs)

    @property
    def rob_occupancy(self) -> int:
        """Number of in-flight instructions."""
        return len(self._rob)

    def poll_fetch(self) -> int | None:
        """Address the frontend wants this cycle, or ``None`` if stalled."""
        if self._halted or self._fetch_stopped:
            return None
        if len(self._rob) >= self.config.rob_size:
            return None
        return self._fetch_pc

    def fetch_occurrence(self, pc: int) -> int:
        """How many times this pc has been fetched as a branch (capped).

        The branch-predictor oracle is an uninterpreted function of
        ``(pc, occurrence)``; capping the occurrence keeps the state space
        finite for looping programs (the predictor family then repeats its
        answer from the cap onward).
        """
        return self._branch_occ.get(pc, 0)

    def min_inflight_seq(self) -> int | None:
        """Oldest in-flight sequence number (shadow-logic drain query)."""
        return self._rob[0][E_SEQ] if self._rob else None

    def max_inflight_seq(self) -> int | None:
        """Youngest in-flight sequence number (the ROB *tail* of Listing 1)."""
        return self._rob[-1][E_SEQ] if self._rob else None

    def step(self, fetch: FetchBundle | None) -> CycleOutput:
        """Advance one clock cycle."""
        if self._halted:
            return CycleOutput(commits=(), membus=(), halted=True)
        commits = self._commit_stage()
        membus: list[int] = []
        events: list[str] = []
        if not self._halted:
            self._execute_stage(membus, events)
            self._dom_promote_stage(membus)
            self._issue_stage(membus, events)
            self._dispatch_stage(fetch)
        return CycleOutput(
            commits=tuple(commits),
            membus=tuple(membus),
            halted=self._halted,
            events=tuple(events),
        )

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _commit_stage(self):
        rob = self._rob
        if not rob or rob[0][E_STATUS] != DONE:
            return ()  # nothing retirable: the common search-state cycle
        commits: list[CommitRecord] = []
        while len(commits) < self.config.commit_width and rob:
            entry = rob[0]
            if entry[E_STATUS] != DONE:
                break
            commits.append(self._commit_record(entry))
            rob.pop(0)
            inst = entry[E_INST]
            if entry[E_EXCEPTION] is not None or inst.op == Opcode.HALT:
                self._squash_from(0)
                self._halted = True
                break
            dest = dest_reg(inst)
            if dest is not None and entry[E_VALUE] is not None:
                self._regs[dest] = entry[E_VALUE]
        return commits

    def _commit_record(self, entry: list) -> CommitRecord:
        inst = entry[E_INST]
        faulted = entry[E_EXCEPTION] is not None
        has_dest = dest_reg(inst) is not None
        return CommitRecord(
            seq=entry[E_SEQ],
            pc=entry[E_PC],
            inst=inst,
            wb=entry[E_VALUE] if has_dest and not faulted else None,
            addr=entry[E_ADDR],
            taken=entry[E_TAKEN],
            mul_ops=entry[E_MUL_OPS],
            exception=entry[E_EXCEPTION],
        )

    def _execute_stage(self, membus: list[int], events: list[str]) -> None:
        if self._mem_cancel > 0:
            self._mem_cancel -= 1
        # Two passes on purpose: every executing entry ticks down *before*
        # any completion runs, because a completion that squashes (resolved
        # mispredict) charges the memory unit with the squashed entry's
        # already-decremented remaining latency (``_squash_from``).
        rob = self._rob
        for entry in rob:
            if entry[E_STATUS] == EXECUTING:
                entry[E_CYCLES] -= 1
        index = 0
        while index < len(rob):
            entry = rob[index]
            if entry[E_STATUS] == EXECUTING and entry[E_CYCLES] <= 0:
                self._complete(index, events)
            index += 1

    def _complete(self, index: int, events: list[str]) -> None:
        entry = self._rob[index]
        inst = entry[E_INST]
        if _is_memory(inst):
            self._mem_seq = None
            if self._cache is not None and entry[E_DRAM] and entry[E_MEM_WORD] is not None:
                self._cache.fill(entry[E_MEM_WORD])
        entry[E_STATUS] = DONE
        if inst.op == Opcode.BRANCH and entry[E_TAKEN] != entry[E_PRED_TAKEN]:
            events.append("mispredict")
            self._squash_from(index + 1)
            target = entry[E_TARGET]
            self._fetch_pc = target if target is not None else entry[E_PC] + 1
            self._fetch_stopped = False

    def _squash_from(self, index: int) -> None:
        """Remove ROB entries at positions >= index (the younger suffix)."""
        removed = self._rob[index:]
        if not removed:
            return
        del self._rob[index:]
        for entry in removed:
            if entry[E_SEQ] != self._mem_seq:
                continue
            # The memory unit cannot abort instantly: an in-flight access
            # finishes its bus transaction (without writeback or fill); a
            # Delay-on-Miss load squashed while waiting tears down its
            # deferred miss request (no fill, no bus-visible address) --
            # the speculative-interference channel.
            if entry[E_STATUS] == EXECUTING:
                self._mem_cancel = max(entry[E_CYCLES], 1)
            elif self.config.cache is not None:
                self._mem_cancel = self.config.cache.miss_latency
            else:
                self._mem_cancel = 1
            self._mem_seq = None

    def _dom_promote_stage(self, membus: list[int]) -> None:
        if not self._rob:
            return
        head = self._rob[0]
        if head[E_STATUS] != WAIT_MEM:
            return
        # The delayed load reached the head: it is no longer speculative,
        # so the DRAM access may proceed (it already owns the memory unit).
        cache = self.config.cache
        assert cache is not None and head[E_MEM_WORD] is not None
        membus.append(head[E_MEM_WORD])
        head[E_STATUS] = EXECUTING
        head[E_CYCLES] = cache.miss_latency
        head[E_DRAM] = True

    def _issue_stage(self, membus: list[int], events: list[str]) -> None:
        mem_ops = _MEM_OPS
        for index, entry in enumerate(self._rob):
            if entry[E_STATUS] != WAITING:
                continue
            if entry[E_INST].op in mem_ops:
                # The single memory unit is busy while an access owns it
                # (_mem_seq) or a squash-recovery penalty drains
                # (_mem_cancel); defenses gate issue on top of that.
                if (
                    self._mem_seq is not None
                    or self._mem_cancel > 0
                    or not self._may_issue_memory(index, entry)
                ):
                    continue
            view = self._operand_view(index, entry)
            if view is None:
                continue
            self._start_execution(index, entry, view, membus, events)
            return  # issue width 1

    def _may_issue_memory(self, index: int, entry: list) -> bool:
        defense = self.config.defense
        if defense is Defense.DELAY_FUTURISTIC:
            return index == 0
        if defense is Defense.DELAY_SPECTRE:
            return index == 0 or not entry[E_BRANCH_AHEAD]
        return True

    def _operand_view(self, index: int, entry: list) -> tuple[int, ...] | None:
        """Operand values as seen by the bypass network, or ``None``.

        Returns ``None`` when a source operand is not ready -- either its
        producer has not completed, or a defense blocks the forward.
        """
        sources = src_regs(entry[E_INST])
        if not sources:
            return tuple(self._regs)
        if len(sources) == 2 and sources[0] == sources[1]:
            sources = sources[:1]
        view = list(self._regs)
        for reg in sources:
            value = self._resolve_operand(index, reg)
            if value is None:
                return None
            view[reg] = value
        return tuple(view)

    def _resolve_operand(self, index: int, reg: int) -> int | None:
        for j in range(index - 1, -1, -1):
            writer = self._rob[j]
            if dest_reg(writer[E_INST]) != reg:
                continue
            if writer[E_STATUS] != DONE:
                return None
            if writer[E_EXCEPTION] is not None:
                # Meltdown-style transient forward from a faulting load,
                # enabled on cores that speculate past exceptions.
                if self.config.speculative_exceptions:
                    return writer[E_VALUE]
                return None
            if _is_memory(writer[E_INST]) and self._forward_blocked(writer):
                return None
            return writer[E_VALUE]
        return self._regs[reg]

    def _forward_blocked(self, writer: list) -> bool:
        defense = self.config.defense
        if defense is Defense.NOFWD_FUTURISTIC:
            return True  # the writer is still in the ROB, hence uncommitted
        if defense is Defense.NOFWD_SPECTRE:
            return writer[E_BRANCH_AHEAD]
        return False

    def _start_execution(
        self,
        index: int,
        entry: list,
        view: tuple[int, ...],
        membus: list[int],
        events: list[str],
    ) -> None:
        result = execute(entry[E_INST], entry[E_PC], view, self._dmem, self.params)
        self.dmem_read = result.mem_word
        op = entry[E_INST].op
        if op == Opcode.BRANCH:
            # Branch resolution takes ``branch_latency`` cycles -- the
            # window during which younger instructions execute transiently.
            entry[E_STATUS] = EXECUTING
            entry[E_CYCLES] = self.config.branch_latency
            entry[E_TAKEN] = result.taken
            entry[E_TARGET] = result.target
            return
        if _is_memory(entry[E_INST]):
            self._start_memory(index, entry, result, membus, events)
            return
        entry[E_STATUS] = EXECUTING
        entry[E_CYCLES] = (
            self.config.mul_latency if op == Opcode.MUL else 1
        )
        entry[E_VALUE] = result.wb_value
        entry[E_MUL_OPS] = result.mul_ops

    def _start_memory(self, index, entry, result, membus, events) -> None:
        if result.exception is not None:
            events.append(result.exception)
            value = result.transient_value if self.config.speculative_exceptions else None
        else:
            value = result.wb_value
        entry[E_VALUE] = value
        entry[E_ADDR] = result.addr
        entry[E_MEM_WORD] = result.mem_word
        entry[E_EXCEPTION] = result.exception
        self._mem_seq = entry[E_SEQ]
        cache = self.config.cache
        if cache is None or self._cache is None:
            # Flat memory: every access (including a faulting one -- the
            # transient access really happens) appears on the bus.
            if result.mem_word is not None:
                membus.append(result.mem_word)
            entry[E_STATUS] = EXECUTING
            entry[E_CYCLES] = self.config.mem_latency
            return
        assert result.mem_word is not None
        if self._cache.hit(result.mem_word):
            # Hits are serviced by the cache: fast and bus-invisible.
            entry[E_STATUS] = EXECUTING
            entry[E_CYCLES] = cache.hit_latency
            return
        if self._dom_delays(index, entry):
            entry[E_STATUS] = WAIT_MEM
            entry[E_CYCLES] = 0
            return
        membus.append(result.mem_word)
        entry[E_STATUS] = EXECUTING
        entry[E_CYCLES] = cache.miss_latency
        entry[E_DRAM] = True

    def _dom_delays(self, index: int, entry: list) -> bool:
        return (
            self.config.defense is Defense.DOM_SPECTRE
            and entry[E_BRANCH_AHEAD]
            and index != 0
        )

    def _dispatch_stage(self, fetch: FetchBundle | None) -> None:
        if fetch is None:
            return
        if fetch.pc != self._fetch_pc:
            # A branch resolved this cycle and redirected the frontend; the
            # instruction fetched at the start of the cycle is on the
            # squashed path and never enters the ROB.
            return
        inst = fetch.inst
        branch_ahead = False
        branch_op = Opcode.BRANCH
        for entry in self._rob:
            if entry[E_INST].op is branch_op:
                branch_ahead = True
                break
        entry = [None] * _ENTRY_WIDTH
        entry[E_SEQ] = self._next_seq
        entry[E_PC] = fetch.pc
        entry[E_INST] = inst
        entry[E_STATUS] = DONE if inst.op == Opcode.HALT else WAITING
        entry[E_CYCLES] = 0
        entry[E_PRED_TAKEN] = fetch.predicted_taken
        entry[E_BRANCH_AHEAD] = branch_ahead
        entry[E_DRAM] = False
        self._next_seq += 1
        self._rob.append(entry)
        if inst.op == Opcode.BRANCH:
            occurrence = self._branch_occ.get(fetch.pc, 0)
            self._branch_occ[fetch.pc] = min(
                occurrence + 1, self.config.predictor_occ_cap
            )
            if fetch.predicted_taken:
                self._fetch_pc = fetch.pc + inst.b
            else:
                self._fetch_pc = fetch.pc + 1
        elif inst.op == Opcode.HALT:
            self._fetch_stopped = True
        else:
            self._fetch_pc = fetch.pc + 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def seq_base(self) -> int:
        """Rebase origin for sequence numbers (oldest live instruction).

        Products must pass this to shadow-logic snapshots so machine and
        shadow sequence references stay mutually consistent.
        """
        return self._rob[0][E_SEQ] if self._rob else self._next_seq

    def snapshot(self) -> tuple:
        """Canonical hashable state.

        Sequence numbers are rebased so that two states differing only by
        how many instructions ever dispatched compare equal -- without this
        the visited-state closure would never terminate on looping
        programs.
        """
        base = self.seq_base()
        if base:
            rob = tuple(
                (entry[E_SEQ] - base, *entry[1:]) for entry in self._rob
            )
        else:
            # Freshly restored states are already rebased (head seq 0), so
            # the common case freezes entries without re-deriving fields.
            rob = tuple(map(tuple, self._rob))
        mem_seq = None if self._mem_seq is None else self._mem_seq - base
        cache = self._cache.snapshot() if self._cache is not None else None
        branch_occ = self._branch_occ
        if len(branch_occ) > 1:
            occ = tuple(sorted(branch_occ.items()))
        else:
            occ = tuple(branch_occ.items())
        return (
            tuple(self._regs),
            self._fetch_pc,
            self._fetch_stopped,
            self._halted,
            self._next_seq - base,
            mem_seq,
            self._mem_cancel,
            cache,
            rob,
            occ,
        )

    def restore(self, snap: tuple) -> None:
        """Restore a state produced by :meth:`snapshot`."""
        (
            regs,
            self._fetch_pc,
            self._fetch_stopped,
            self._halted,
            self._next_seq,
            self._mem_seq,
            self._mem_cancel,
            cache,
            rob,
            occ,
        ) = snap
        self._regs = list(regs)
        self._rob = list(map(list, rob))
        self._branch_occ = dict(occ)
        if self._cache is not None:
            self._cache.restore(cache)

    # ------------------------------------------------------------------
    # Packed snapshots (repro.mc.packed)
    # ------------------------------------------------------------------
    def snapshot_words(self, out: list, atoms) -> None:
        """Append this core's state as tagged words (``repro.mc.packed``).

        Field-for-field the same canonical state as :meth:`snapshot`
        (same rebasing, same ``branch_occ`` ordering rule), flattened:
        scalars pack inline, while the register file, cache tags, the
        frozen (rebased) ROB, and the branch-occurrence map intern as
        atoms -- atom-id equality is tuple equality, so word equality
        coincides with object-snapshot equality.  Every section has a
        config-fixed width, so the word stream parses unambiguously.
        """
        rob = self._rob
        base = rob[0][E_SEQ] if rob else self._next_seq
        aid = atoms.id_of
        mem_seq = self._mem_seq
        cache = self._cache
        if base:
            rob_frozen = tuple((e[E_SEQ] - base, *e[1:]) for e in rob)
        else:
            rob_frozen = tuple(map(tuple, rob))
        branch_occ = self._branch_occ
        if len(branch_occ) > 1:
            occ = tuple(sorted(branch_occ.items()))
        else:
            occ = tuple(branch_occ.items())
        out.extend(
            (
                self._fetch_pc << 2,
                4 if self._fetch_stopped else 0,
                4 if self._halted else 0,
                (self._next_seq - base) << 2,
                1 if mem_seq is None else (mem_seq - base) << 2,
                self._mem_cancel << 2,
                (aid(tuple(self._regs)) << 2) | 2,
                (aid(rob_frozen) << 2) | 2,
                (aid(occ) << 2) | 2,
            )
            if cache is None
            else (
                self._fetch_pc << 2,
                4 if self._fetch_stopped else 0,
                4 if self._halted else 0,
                (self._next_seq - base) << 2,
                1 if mem_seq is None else (mem_seq - base) << 2,
                self._mem_cancel << 2,
                (aid(tuple(self._regs)) << 2) | 2,
                (aid(cache.snapshot()) << 2) | 2,
                (aid(rob_frozen) << 2) | 2,
                (aid(occ) << 2) | 2,
            )
        )

    def restore_words(self, words, pos: int, atoms) -> int:
        """Restore from :meth:`snapshot_words` output; returns next pos."""
        values = atoms.values
        self._fetch_pc = words[pos] >> 2
        self._fetch_stopped = bool(words[pos + 1] >> 2)
        self._halted = bool(words[pos + 2] >> 2)
        self._next_seq = words[pos + 3] >> 2
        word = words[pos + 4]
        self._mem_seq = None if word == 1 else word >> 2
        self._mem_cancel = words[pos + 5] >> 2
        self._regs = list(values[words[pos + 6] >> 2])
        pos += 7
        if self._cache is not None:
            self._cache.restore(values[words[pos] >> 2])
            pos += 1
        self._rob = list(map(list, values[words[pos] >> 2]))
        self._branch_occ = dict(values[words[pos + 1] >> 2])
        return pos + 2
