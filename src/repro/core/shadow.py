"""Contract Shadow Logic: the paper's core contribution (§5, Listing 1).

The shadow logic watches the commit ports of two copies of an out-of-order
processor and turns the four-machine contract check of Fig. 1(a) into a
two-machine check:

**Phase 1** -- both copies run in lockstep.  Every cycle the shadow logic
compares the microarchitectural observations (memory-bus addresses, commit
count).  ISA observations extracted from committed instructions are matched
in program order across the two copies; a mismatch violates the contract
constraint *assumption* (the program is invalid -- the model checker prunes
the path).  On the first microarchitectural deviation the shadow logic
records each copy's ROB tail (the youngest in-flight instruction) and
enters phase 2.

**Phase 2** -- the leakage has tentatively been observed; what remains is
the *instruction inclusion* requirement (§5.2.1): every instruction whose
microarchitectural side effects were part of the comparison and that will
eventually commit must still pass the contract constraint check.  The
shadow logic therefore waits until both copies have *drained* every
instruction that was in flight at the deviation (committed or squashed --
the recorded tail may itself be squashed, which the monotone sequence
numbering accounts for).  Meanwhile the *synchronization* requirement
(§5.2.2) is enforced by pausing the clock of whichever copy has committed
ahead (its pending observation queue is non-empty) until the other catches
up -- the analogue of gating ``clk`` in Listing 1.  Once both copies are
drained and every pending ISA observation matched, the leakage assertion
fires: a contract-valid program produced distinguishable microarchitectural
traces.

Superscalar support (§5.3): with commit width > 1 the per-cycle ISA traces
are matched *partially*: unmatched observations wait in a bounded queue
("the number of entries only needs to match the commit bandwidth") and the
pause granularity follows the queue imbalance.

Fetch gating in phase 2: instructions fetched after the deviation are
younger than the recorded tails, so they can neither change the values of
older committed instructions (no stores in the ISA; register dataflow only
goes old to young) nor stall the drain; gating fetch in phase 2 is
behaviour-preserving for the check and keeps the product state space small.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.core.contracts import Contract
from repro.events import CycleOutput


class ShadowVerdict(NamedTuple):
    """Outcome of one shadow-logic cycle.

    Attributes:
        assume_violated: the contract constraint check failed -- the
            program is invalid and the model checker must prune this path
            (the SVA ``assume`` of Listing 1, line 34).
        assertion_failed: the leakage assertion fired -- a valid program
            with distinguishable microarchitectural traces (Listing 1,
            line 36): a real attack.
    """

    assume_violated: bool
    assertion_failed: bool


class ContractShadowLogic:
    """Two-phase shadow logic over a pair of machine copies."""

    PHASE_LOCKSTEP = 1
    PHASE_DRAIN = 2

    def __init__(self, contract: Contract, gate_fetch: bool = True):
        """Create shadow logic for one machine pair.

        ``gate_fetch`` controls the phase-2 fetch gate (see the module
        docstring).  Disabling it is behaviour-preserving -- verdicts are
        identical -- but lets post-deviation instructions keep entering
        the pipelines; the ablation benchmark measures the state-space
        cost of that.
        """
        self.contract = contract
        self.gate_fetch = gate_fetch
        self._phase = self.PHASE_LOCKSTEP
        self._drain_targets: list[int | None] = [None, None]
        self._pending: list[deque] = [deque(), deque()]

    # ------------------------------------------------------------------
    # Clock control (queried by the product before stepping the machines)
    # ------------------------------------------------------------------
    @property
    def phase(self) -> int:
        """Current phase (1 = lockstep compare, 2 = drain & realign)."""
        return self._phase

    def pauses(self) -> tuple[bool, bool]:
        """Which machine clocks to gate this cycle (Listing 1 ``pause``).

        In phase 2 the machine that has committed ahead (non-empty pending
        ISA-observation queue) is paused so the derived ISA traces realign.
        """
        if self._phase == self.PHASE_LOCKSTEP:
            return (False, False)
        return (len(self._pending[0]) > 0, len(self._pending[1]) > 0)

    def suppress_fetch(self) -> bool:
        """Whether new instruction fetch is gated (phase 2)."""
        return self.gate_fetch and self._phase == self.PHASE_DRAIN

    def clock_control(self) -> tuple[bool, tuple[bool, bool]]:
        """(fetch gated, per-machine pauses) for this cycle, in one probe.

        The phase-1 fast path -- nothing gates, nothing pauses in
        lockstep -- lives *here*, next to the state that defines it, so
        products can take it without re-encoding shadow-logic invariants
        (this is the hot query: once per search-node expansion).
        """
        if self._phase == self.PHASE_LOCKSTEP:
            return (False, (False, False))
        return (self.suppress_fetch(), self.pauses())

    # ------------------------------------------------------------------
    # Per-cycle monitoring
    # ------------------------------------------------------------------
    def on_cycle(
        self,
        outputs: tuple[CycleOutput, CycleOutput],
        tails: tuple[int | None, int | None],
        heads: tuple[int | None, int | None],
        stepped: tuple[bool, bool],
    ) -> ShadowVerdict:
        """Observe one product cycle.

        Args:
            outputs: the two machines' cycle outputs (paused machines
                produce an empty output and ``stepped[i]`` is false).
            tails: each machine's youngest in-flight sequence number
                *after* the cycle (``max_inflight_seq``).
            heads: each machine's oldest in-flight sequence number after
                the cycle (``min_inflight_seq``; ``None`` = empty ROB).
            stepped: which machines were actually clocked.
        """
        pending0, pending1 = self._pending
        isa_obs = self.contract.isa_obs
        if stepped[0]:
            for record in outputs[0].commits:
                obs = isa_obs(record)
                if obs is not None:
                    pending0.append(obs)
        if stepped[1]:
            for record in outputs[1].commits:
                obs = isa_obs(record)
                if obs is not None:
                    pending1.append(obs)
        # Contract constraint check: match derived ISA traces in order.
        while pending0 and pending1:
            if pending0.popleft() != pending1.popleft():
                return ShadowVerdict(assume_violated=True, assertion_failed=False)
        if self._phase == self.PHASE_LOCKSTEP:
            out0, out1 = outputs
            # Inline ``uarch_obs`` comparison (no tuple allocation): the
            # observation is (membus addresses, commit count).
            if out0.membus != out1.membus or len(out0.commits) != len(out1.commits):
                # First microarchitectural deviation: record the ROB tails
                # (Listing 1 lines 11-15) and switch to phase 2.
                self._phase = self.PHASE_DRAIN
                self._drain_targets = [tails[0], tails[1]]
            return ShadowVerdict(assume_violated=False, assertion_failed=False)
        # Phase 2: update drain state (a drained side stays drained).
        for side in (0, 1):
            target = self._drain_targets[side]
            if target is None:
                continue
            head = heads[side]
            if head is None or head > target:
                self._drain_targets[side] = None
        drained = self._drain_targets == [None, None]
        settled = not self._pending[0] and not self._pending[1]
        return ShadowVerdict(
            assume_violated=False, assertion_failed=drained and settled
        )

    # ------------------------------------------------------------------
    # Snapshots (sequence numbers rebased consistently with the machines)
    # ------------------------------------------------------------------
    def snapshot(self, bases: tuple[int, int]) -> tuple:
        """Canonical hashable state, rebased per machine."""
        target0, target1 = self._drain_targets
        return (
            self._phase,
            (
                None if target0 is None else target0 - bases[0],
                None if target1 is None else target1 - bases[1],
            ),
            tuple(self._pending[0]),
            tuple(self._pending[1]),
        )

    def restore(self, snap: tuple, bases: tuple[int, int]) -> None:
        """Restore a state produced by :meth:`snapshot`."""
        phase, targets, pend0, pend1 = snap
        self._phase = phase
        self._drain_targets = [
            None if targets[side] is None else targets[side] + bases[side]
            for side in (0, 1)
        ]
        self._pending = [deque(pend0), deque(pend1)]
