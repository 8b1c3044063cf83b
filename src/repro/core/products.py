"""Designs under verification: the two verification-scheme products.

A *product* bundles machine copies plus checking logic into one transition
system the model checker explores:

- :class:`ShadowProduct` (Fig. 1b): two out-of-order copies + Contract
  Shadow Logic.  Contract constraint check and leakage assertion check both
  run on the derived commit-stage traces.
- :class:`BaselineProduct` (Fig. 1a): two single-cycle ISA machines (the
  contract constraint check) + two out-of-order copies (the leakage
  assertion check), all stepped cycle by cycle.

The crucial *scalability* difference carries over from the paper: the ISA
machines of the baseline execute one instruction per cycle from the start,
forcing the model checker to concretize the whole symbolic program eagerly,
while the shadow product concretizes only what the out-of-order frontend
actually fetches -- lazily, stall by stall.  (In JasperGold terms: four
state machines instead of two.)
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Protocol, Sequence

from repro.core.assumptions import Assumption
from repro.core.contracts import Contract
from repro.core.shadow import ContractShadowLogic
from repro.events import CycleOutput, FetchBundle
from repro.isa.machine import IsaMachine
from repro.isa.params import MachineParams


class FetchRequest(NamedTuple):
    """One machine's instruction-fetch demand for the coming cycle.

    Attributes:
        slot: index into the bundle list passed to ``step_cycle``.
        pc: requested instruction-memory address.
        occurrence: branch-predictor oracle index for this pc (per-machine
            fetch occurrence, capped; see the core's ``fetch_occurrence``).
        predictor: ``"nondet"`` (oracle bit), ``"taken"``, ``"not_taken"``
            or ``"none"`` (machine ignores predictions).
    """

    slot: int
    pc: int
    occurrence: int
    predictor: str


class StepResult(NamedTuple):
    """Outcome of one product cycle.

    ``pruned`` paths violate an assumption (invalid program or an explicit
    exclusion); ``failed`` means the leakage assertion fired -- the current
    path is an attack.
    """

    pruned: bool
    failed: bool
    reason: str | None


class Product(Protocol):
    """What the model checker needs from a design under verification."""

    params: MachineParams

    def reset(self, dmem_pair: tuple[tuple[int, ...], tuple[int, ...]]) -> None: ...

    def fetch_requests(self) -> list[FetchRequest]: ...

    def step_cycle(self, bundles: Sequence[FetchBundle | None]) -> StepResult: ...

    def quiescent(self) -> bool: ...

    def snapshot(self) -> tuple: ...

    def restore(self, snap: tuple) -> None: ...


_STEP_OK = StepResult(pruned=False, failed=False, reason=None)


def _check_assumptions(
    assumptions: Iterable[Assumption], outputs: Iterable[CycleOutput]
) -> str | None:
    for out in outputs:
        if not out.events:
            continue
        for assumption in assumptions:
            if assumption.excludes(out.events):
                return f"excluded:{assumption.name}"
    return None


class ShadowProduct:
    """Two OoO copies + Contract Shadow Logic (the paper's scheme).

    The memoizing vector engine (``repro.mc.vector``) drives this
    product through its machines and checker protocol (``dmem_sides``,
    ``clock_control``, ``fold_cycle``,
    ``checker_snapshot``/``checker_restore``, ``settled``).  None of
    those consults twin mode.

    Twin mode: the copies differ only in their data memories, so until
    one of them reads a word on which the memories differ they step
    identically (the ``dmem_read`` contract,
    ``tests/mc/test_dmem_read.py``).  :meth:`reset` enters twin mode,
    in which :meth:`step_cycle` steps copy 0 alone and copy 1 records
    the bundles it owes; the first cycle on which the copies could
    differ replays them onto copy 1 and leaves twin mode for good, and
    :meth:`restore` leaves it too.  So ``machines[1]`` lags behind in
    twin mode: read the pair through the product (``fetch_requests``,
    ``quiescent``, ``snapshot``), never through ``machines[1]``.
    """

    #: Which data memory of a root's pair each machine slot runs on.
    dmem_sides = (0, 1)

    def __init__(
        self, core_factory, contract: Contract, assumptions=(), gate_fetch=True
    ):
        self.machines = [core_factory(), core_factory()]
        self.contract = contract
        self.assumptions = tuple(assumptions)
        self.gate_fetch = gate_fetch
        self.shadow = ContractShadowLogic(contract, gate_fetch=gate_fetch)
        self.params = self.machines[0].params
        self.predictors = [m.config.predictor for m in self.machines]
        #: Cycle outputs of the most recent ``step_cycle`` (replay/debug).
        self.last_outputs: tuple[CycleOutput, ...] = ()
        #: Machine steps run by ``step_cycle`` and twin catch-up so far.
        self.steps = 0
        # Twin mode: the bundles copy 1 owes, or ``None`` outside it.
        self._owed: list | None = None
        self._secret_words: set[int] = set()

    def reset(self, dmem_pair) -> None:
        """Start both copies on the given (secret-differing) memories."""
        self.machines[0].reset(dmem_pair[0])
        self.machines[1].reset(dmem_pair[1])
        self.shadow = ContractShadowLogic(self.contract, gate_fetch=self.gate_fetch)
        self._owed = []
        self._secret_words = {w for w, (a, b) in enumerate(zip(*dmem_pair)) if a != b}

    def _catch_up(self) -> None:
        """Step copy 1 through the bundles it owes (twin mode only)."""
        owed = self._owed
        machine1 = self.machines[1]
        for bundle in owed:
            machine1.step(bundle)
        self.steps += len(owed)
        owed.clear()

    def clock_control(self) -> tuple[bool, tuple[bool, bool]]:
        """(fetch gated, per-machine pauses) for the coming cycle."""
        return self.shadow.clock_control()

    def fetch_requests(self) -> list[FetchRequest]:
        """Fetch demands of the unpaused machines (gated in phase 2)."""
        gated, pauses = self.shadow.clock_control()
        if gated:
            return []
        requests = []
        machines = self.machines
        if self._owed is not None:
            # Twin mode: copy 1 would ask exactly what copy 0 asks.
            machines = (machines[0], machines[0])
        for index, machine in enumerate(machines):
            if pauses[index]:
                continue
            pc = machine.poll_fetch()
            if pc is None:
                continue
            requests.append(
                FetchRequest(
                    slot=index,
                    pc=pc,
                    occurrence=machine.fetch_occurrence(pc),
                    predictor=self.predictors[index],
                )
            )
        return requests

    def step_cycle(self, bundles: Sequence[FetchBundle | None]) -> StepResult:
        """Clock the product one cycle and evaluate assume/assert."""
        machine0, machine1 = self.machines
        out0 = None
        if self._owed is not None:
            if bundles[0] == bundles[1]:
                machine0.dmem_read = None
                out0 = machine0.step(bundles[0])
                self.steps += 1
                word = machine0.dmem_read
                if word is None or word not in self._secret_words:
                    # Copy 1 would step identically, and on equal outputs
                    # the lockstep shadow logic's queues pop equal and
                    # stay empty: only the assumptions act on this cycle.
                    self._owed.append(bundles[0])
                    self.last_outputs = outputs = (out0, out0)
                    if self.assumptions:
                        reason = _check_assumptions(self.assumptions, outputs)
                        if reason is not None:
                            return StepResult(pruned=True, failed=False, reason=reason)
                    return _STEP_OK
            # The copies could differ from this cycle on.
            self._catch_up()
            self._owed = None
        pauses = self.shadow.pauses()
        # Hot path: in phase 1 (and phase 2 with realigned queues) nothing
        # pauses, so skip the per-machine gating scaffolding entirely.
        # Twin mode ends in phase 1, so an ``out0`` stepped above lands here.
        if pauses[0] or pauses[1]:
            outputs = (
                CycleOutput(commits=(), membus=(), halted=machine0.halted)
                if pauses[0]
                else machine0.step(bundles[0]),
                CycleOutput(commits=(), membus=(), halted=machine1.halted)
                if pauses[1]
                else machine1.step(bundles[1]),
            )
            stepped = (not pauses[0], not pauses[1])
            self.steps += stepped[0] + stepped[1]
        else:
            if out0 is None:
                out0 = machine0.step(bundles[0])
                self.steps += 1
            outputs = (out0, machine1.step(bundles[1]))
            stepped = (True, True)
            self.steps += 1
        self.last_outputs = outputs
        return self.fold_cycle(
            outputs,
            (machine0.max_inflight_seq(), machine1.max_inflight_seq()),
            (machine0.min_inflight_seq(), machine1.min_inflight_seq()),
            stepped,
        )

    def fold_cycle(self, outputs, tails, heads, stepped) -> StepResult:
        """Evaluate assume/assert on one cycle's machine outputs.

        The checker half of :meth:`step_cycle`, on the live shadow
        logic: ``tails``/``heads`` are each copy's in-flight sequence
        bounds after the cycle, ``stepped`` which copies were clocked.
        The vector engine replays it on canonical-frame outputs.
        """
        if self.assumptions:
            reason = _check_assumptions(self.assumptions, outputs)
            if reason is not None:
                return StepResult(pruned=True, failed=False, reason=reason)
        shadow = self.shadow
        verdict = shadow.on_cycle(outputs, tails, heads, stepped)
        if verdict.assume_violated:
            return StepResult(pruned=True, failed=False, reason="contract")
        if verdict.assertion_failed:
            return StepResult(pruned=False, failed=True, reason="leakage")
        if (
            shadow.phase == ContractShadowLogic.PHASE_DRAIN
            and outputs[0].halted
            and outputs[1].halted
        ):
            # Both copies halted mid-drain with observations still pending:
            # unreachable for well-formed contracts (a control-flow
            # divergence always implies an earlier observation mismatch);
            # treated conservatively as an invalid program.
            return StepResult(pruned=True, failed=False, reason="stuck-drain")
        return StepResult(pruned=False, failed=False, reason=None)

    def settled(self) -> bool:
        """Whether the checker records no deviation (phase 1)."""
        return self.shadow.phase == ContractShadowLogic.PHASE_LOCKSTEP

    def quiescent(self) -> bool:
        """Terminal OK state: both copies halted, no deviation recorded."""
        machine0, machine1 = self.machines
        twin = self._owed is not None  # copy 1 lags; copy 0 speaks for both
        return machine0.halted and (twin or machine1.halted) and self.settled()

    def checker_snapshot(self, bases: tuple[int, int]) -> tuple:
        """Canonical shadow-logic state, rebased per copy."""
        return self.shadow.snapshot(bases)

    def checker_restore(self, state: tuple) -> None:
        """Restore :meth:`checker_snapshot` next to canonical-frame copies."""
        # Restored machines are already rebased (head seq 0), so the
        # shadow state restores against zero bases.
        self.shadow.restore(state, (0, 0))

    def snapshot(self) -> tuple:
        """Canonical product state (machine snapshots rebase internally)."""
        if self._owed:
            self._catch_up()
        machine0, machine1 = self.machines
        return (
            machine0.snapshot(),
            machine1.snapshot(),
            self.checker_snapshot((machine0.seq_base(), machine1.seq_base())),
        )

    def restore(self, snap: tuple) -> None:
        """Restore a state produced by :meth:`snapshot` (leaves twin mode)."""
        self._owed = None
        self.machines[0].restore(snap[0])
        self.machines[1].restore(snap[1])
        self.checker_restore(snap[2])



class BaselineProduct:
    """Two ISA machines + two OoO copies (the Fig. 1a baseline scheme).

    The vector engine drives the four machines through the same protocol
    as :class:`ShadowProduct`; the checker state is the
    pending-observation pair.
    """

    #: ISA pair and OoO pair each run one machine per data memory.
    dmem_sides = (0, 1, 0, 1)

    def __init__(self, core_factory, contract: Contract, assumptions=()):
        cpu0, cpu1 = core_factory(), core_factory()
        self.params = cpu0.params
        self.machines = [
            IsaMachine(self.params),
            IsaMachine(self.params),
            cpu0,
            cpu1,
        ]
        self.contract = contract
        self.assumptions = tuple(assumptions)
        self.predictors = ["none", "none", cpu0.config.predictor, cpu1.config.predictor]
        self._pending: tuple[list, list] = ([], [])
        #: Cycle outputs of the most recent ``step_cycle`` (replay/debug).
        self.last_outputs: tuple[CycleOutput, ...] = ()

    def reset(self, dmem_pair) -> None:
        """Start all four machines (ISA and OoO pairs share the memories)."""
        self.machines[0].reset(dmem_pair[0])
        self.machines[1].reset(dmem_pair[1])
        self.machines[2].reset(dmem_pair[0])
        self.machines[3].reset(dmem_pair[1])
        self._pending = ([], [])

    def clock_control(self) -> tuple[bool, tuple[bool, ...]]:
        """(fetch gated, per-machine pauses): the baseline never gates."""
        return (False, (False, False, False, False))

    def fetch_requests(self) -> list[FetchRequest]:
        """All four machines fetch; the ISA pair fetches eagerly."""
        requests = []
        for index, machine in enumerate(self.machines):
            pc = machine.poll_fetch()
            if pc is None:
                continue
            requests.append(
                FetchRequest(
                    slot=index,
                    pc=pc,
                    occurrence=machine.fetch_occurrence(pc),
                    predictor=self.predictors[index],
                )
            )
        return requests

    def step_cycle(self, bundles: Sequence[FetchBundle | None]) -> StepResult:
        """Clock all four machines; assume on ISA traces, assert on μarch."""
        outputs = tuple([m.step(bundles[i]) for i, m in enumerate(self.machines)])
        self.last_outputs = outputs
        return self.fold_cycle(outputs)

    def fold_cycle(self, outputs, tails=(), heads=(), stepped=()) -> StepResult:
        """Evaluate assume/assert on one cycle's machine outputs.

        The checker half of :meth:`step_cycle`, on the live pending
        queues; every machine steps every cycle, so the in-flight bounds
        and stepped flags of :meth:`ShadowProduct.fold_cycle` go unused.
        """
        reason = _check_assumptions(self.assumptions, outputs)
        if reason is not None:
            return StepResult(pruned=True, failed=False, reason=reason)
        # Contract constraint check on the single-cycle pair (lockstep).
        for side in (0, 1):
            for record in outputs[side].commits:
                obs = self.contract.isa_obs(record)
                if obs is not None:
                    self._pending[side].append(obs)
        while self._pending[0] and self._pending[1]:
            if self._pending[0].pop(0) != self._pending[1].pop(0):
                return StepResult(pruned=True, failed=False, reason="contract")
        # Leakage assertion check on the out-of-order pair.  The ISA
        # machines run at one instruction per cycle -- always ahead of the
        # OoO frontend -- so the instruction inclusion requirement holds by
        # construction (§5.2.1) and a deviation is immediately an attack.
        if outputs[2].uarch_obs != outputs[3].uarch_obs:
            return StepResult(pruned=False, failed=True, reason="leakage")
        return StepResult(pruned=False, failed=False, reason=None)

    def settled(self) -> bool:
        """The pending queues never block termination."""
        return True

    def quiescent(self) -> bool:
        """Terminal OK state: every machine halted."""
        return all(m.halted for m in self.machines)

    def checker_snapshot(self, bases=()) -> tuple:
        """The pending-observation pair (no sequence numbers to rebase)."""
        return (tuple(self._pending[0]), tuple(self._pending[1]))

    def checker_restore(self, state: tuple) -> None:
        """Restore a state produced by :meth:`checker_snapshot`."""
        self._pending = (list(state[0]), list(state[1]))

    def snapshot(self) -> tuple:
        """Canonical product state."""
        return (
            self.machines[0].snapshot(),
            self.machines[1].snapshot(),
            self.machines[2].snapshot(),
            self.machines[3].snapshot(),
            *self.checker_snapshot(),
        )

    def restore(self, snap: tuple) -> None:
        """Restore a state produced by :meth:`snapshot`."""
        for index in range(4):
            self.machines[index].restore(snap[index])
        self.checker_restore(snap[4:])

