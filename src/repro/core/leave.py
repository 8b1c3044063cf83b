"""LEAVE-style inductive verification (the §7.1.3 comparison point).

LEAVE [Wang et al., CCS'23] proves leakage contracts by *inductive
invariants* relating the two machine copies.  Its automatically generated
candidates assert that corresponding registers (netlist state elements)
hold equal values in the two copies.  A Houdini-style loop eliminates
candidates that are not preserved by one step from candidate-satisfying
states; the surviving set must then imply the per-cycle security assertion
inductively.  When the auto-generated candidates are insufficient -- the
paper's finding for out-of-order processors -- the induction step starts
from unreachable states and produces **false counterexamples**, so the
verifier must answer UNKNOWN.

Our re-implementation works over the explicit state of our cores instead
of an SMT encoding of a netlist:

- *candidates*: equality, across the two copies, of each atom of the
  flattened machine snapshot (architectural registers, fetch pc, every ROB
  entry field, memory-unit state, cache tags) -- the direct analogue of
  netlist-register equality.
- *induction states*: reachable pair states harvested from randomized
  contract-respecting runs, plus structured perturbations of them (atoms
  under a surviving equality candidate are mutated identically in both
  copies, eliminated atoms independently) -- the analogue of the SMT
  solver's arbitrary states.
- *induction step*: one product cycle under sampled instruction/predictor
  inputs, with contract-violating steps excluded (they are outside the
  assumption, exactly as in LEAVE's formulation).

Outcomes mirror the paper's Table 2 row: PROVED on the in-order core,
UNKNOWN (invariants exhausted, or false counterexamples) on out-of-order
cores -- for both the secure and the insecure variants.

This is a faithful *behavioural* reproduction of the comparison, not of
LEAVE's implementation: it substitutes sampled explicit induction for
LEAVE's SMT queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.obs import clock
from repro.core.contracts import Contract
from repro.events import FetchBundle
from repro.isa.encoding import EncodingSpace
from repro.isa.instruction import Opcode
from repro.mc.explorer import Root
from repro.mc.result import PROVED, UNKNOWN, Outcome, SearchStats

#: Marks a snapshot atom that does not exist in a state's current shape
#: (e.g. an empty pipeline latch or an unoccupied ROB slot).  Real netlists
#: have fixed registers with valid bits; the sentinel plays the valid bit.
_ABSENT = object()


def flatten_state(snapshot: object, prefix: str = "s") -> list[tuple[str, object]]:
    """Flatten a nested snapshot tuple into labeled scalar atoms.

    The labels are structural paths; they identify "registers" of the
    machine in the netlist sense, so equality candidates can be generated
    mechanically for any core.
    """
    if isinstance(snapshot, tuple):
        atoms: list[tuple[str, object]] = []
        for index, item in enumerate(snapshot):
            atoms.extend(flatten_state(item, f"{prefix}.{index}"))
        return atoms
    return [(prefix, snapshot)]


def _rebuild(snapshot: object, values: dict[str, object], prefix: str = "s"):
    """Rebuild a snapshot with some atoms replaced (inverse of flatten)."""
    if isinstance(snapshot, tuple):
        rebuilt = tuple(
            _rebuild(item, values, f"{prefix}.{index}")
            for index, item in enumerate(snapshot)
        )
        if type(snapshot) is not tuple:  # NamedTuple: preserve the type
            return type(snapshot)(*rebuilt)
        return rebuilt
    return values.get(prefix, snapshot)


class _LockstepPair:
    """Two machine copies stepped in lockstep (LEAVE's product)."""

    def __init__(self, core_factory, contract: Contract):
        self.machines = [core_factory(), core_factory()]
        self.contract = contract
        self.params = self.machines[0].params

    def reset(self, dmem_pair) -> None:
        self.machines[0].reset(dmem_pair[0])
        self.machines[1].reset(dmem_pair[1])

    def snapshot_pair(self) -> tuple[tuple, tuple]:
        return (self.machines[0].snapshot(), self.machines[1].snapshot())

    def restore_pair(self, pair: tuple[tuple, tuple]) -> None:
        self.machines[0].restore(pair[0])
        self.machines[1].restore(pair[1])

    def step(self, program_slot, predictor_bit: bool):
        """One lockstep cycle with a sampled instruction/prediction input.

        Returns ``(assume_ok, assert_ok)``: whether the contract constraint
        held (commit observations equal) and whether the leakage assertion
        held (microarchitectural observations equal).
        """
        outs = []
        for machine in self.machines:
            pc = machine.poll_fetch()
            bundle = None
            if pc is not None:
                predicted = (
                    predictor_bit if program_slot.op == Opcode.BRANCH else None
                )
                bundle = FetchBundle(pc=pc, inst=program_slot, predicted_taken=predicted)
            outs.append(machine.step(bundle))
        obs = []
        for out in outs:
            obs.append(
                tuple(
                    o
                    for o in (self.contract.isa_obs(r) for r in out.commits)
                    if o is not None
                )
            )
        assume_ok = obs[0] == obs[1]
        assert_ok = outs[0].uarch_obs == outs[1].uarch_obs
        return assume_ok, assert_ok


@dataclass
class LeaveConfig:
    """Sampling effort knobs for the Houdini loop."""

    n_runs: int = 40
    run_cycles: int = 40
    n_perturbed: int = 150
    inputs_per_state: int = 6
    max_rounds: int = 20
    seed: int = 2024


def leave_verify(
    core_factory,
    contract: Contract,
    space: EncodingSpace,
    roots: list[Root],
    config: LeaveConfig = LeaveConfig(),
) -> Outcome:
    """Run the LEAVE-style invariant search; PROVED, UNKNOWN or ATTACK."""
    start = clock.monotonic()
    rng = random.Random(config.seed)
    pair = _LockstepPair(core_factory, contract)
    universe = [i for i in space.instructions()]
    reachable = _harvest_reachable(pair, universe, roots, config, rng)
    if not reachable:
        return Outcome(
            kind=UNKNOWN,
            elapsed=clock.monotonic() - start,
            stats=SearchStats(),
            note="no contract-respecting reachable states harvested",
        )
    # Candidate labels span every shape any harvested state takes (a ROB
    # slot that is sometimes empty still names a netlist register).
    atoms = sorted(
        {
            label
            for _root, state in reachable
            for side in (0, 1)
            for label, _ in flatten_state(state[side])
        }
    )
    candidates = set(atoms)
    domains = _atom_domains(reachable)
    transitions = 0
    for _ in range(config.max_rounds):
        states = list(reachable)
        states.extend(
            _perturb(reachable, candidates, domains, config.n_perturbed, rng)
        )
        eliminated: set[str] = set()
        for root, state in states:
            if not _satisfies(state, candidates):
                continue
            for inst, bit in _sample_inputs(universe, config.inputs_per_state, rng):
                pair.reset(root.dmem_pair)
                pair.restore_pair(state)
                assume_ok, _assert_ok = pair.step(inst, bit)
                transitions += 1
                if not assume_ok:
                    continue  # outside the contract assumption
                successor = pair.snapshot_pair()
                for label in _violated(successor, candidates):
                    eliminated.add(label)
        if not eliminated:
            break
        candidates -= eliminated
        if not candidates:
            return Outcome(
                kind=UNKNOWN,
                elapsed=clock.monotonic() - start,
                stats=SearchStats(states=len(states), transitions=transitions),
                note="candidate invariants exhausted (LEAVE: UNKNOWN)",
            )
    # Induction step for the security assertion itself.  LEAVE cannot tell
    # whether a violating induction state is reachable, so every violation
    # is an inconclusive (possibly false) counterexample: UNKNOWN (§7.1.3).
    states = list(reachable)
    states.extend(_perturb(reachable, candidates, domains, config.n_perturbed, rng))
    for root, state in states:
        if not _satisfies(state, candidates):
            continue
        for inst, bit in _sample_inputs(universe, config.inputs_per_state, rng):
            pair.reset(root.dmem_pair)
            pair.restore_pair(state)
            assume_ok, assert_ok = pair.step(inst, bit)
            transitions += 1
            if not assume_ok or assert_ok:
                continue
            return Outcome(
                kind=UNKNOWN,
                elapsed=clock.monotonic() - start,
                stats=SearchStats(states=len(states), transitions=transitions),
                note="induction counterexample (possibly unreachable state):"
                " LEAVE reports UNKNOWN",
            )
    return Outcome(
        kind=PROVED,
        elapsed=clock.monotonic() - start,
        stats=SearchStats(states=len(states), transitions=transitions),
        note=f"inductive with {len(candidates)}/{len(atoms)} equality invariants"
        " (sampled induction)",
    )


# ----------------------------------------------------------------------
# Houdini machinery
# ----------------------------------------------------------------------
def _harvest_reachable(pair, universe, roots, config, rng):
    """(root, pair-state) samples from contract-respecting lockstep runs.

    The root travels with the state because data memories are not part of
    machine snapshots; every later restore re-installs the memories first.
    """
    states = []
    for run in range(config.n_runs):
        root = roots[run % len(roots)]
        pair.reset(root.dmem_pair)
        program = [rng.choice(universe) for _ in range(pair.params.imem_size)]
        for _ in range(config.run_cycles):
            states.append((root, pair.snapshot_pair()))
            pc = pair.machines[0].poll_fetch()
            slot = program[pc] if pc is not None and 0 <= pc < len(program) else None
            from repro.isa.instruction import HALT

            inst = slot if slot is not None else HALT
            assume_ok, _ = pair.step(inst, rng.random() < 0.5)
            if not assume_ok:
                states.pop()  # the step left the contract's program class
                break
            if pair.machines[0].halted and pair.machines[1].halted:
                break
    return states


def _atom_domains(states):
    domains: dict[str, set] = {}
    for _root, state in states:
        for side in (0, 1):
            for label, value in flatten_state(state[side]):
                domains.setdefault(label, set()).add(value)
    return {label: sorted(values, key=repr) for label, values in domains.items()}


def _satisfies(state, candidates):
    left = dict(flatten_state(state[0]))
    right = dict(flatten_state(state[1]))
    return all(
        left.get(c, _ABSENT) == right.get(c, _ABSENT) for c in candidates
    )


def _violated(state, candidates):
    left = dict(flatten_state(state[0]))
    right = dict(flatten_state(state[1]))
    return [
        c for c in candidates if left.get(c, _ABSENT) != right.get(c, _ABSENT)
    ]


def _perturb(reachable, candidates, domains, count, rng):
    """Generate arbitrary candidate-satisfying states by mutation.

    Atoms covered by a surviving equality candidate mutate identically in
    both copies; eliminated atoms mutate independently -- the explicit
    analogue of the SMT solver choosing arbitrary values for unconstrained
    registers.
    """
    perturbed = []
    labels = list(domains)
    for _ in range(count):
        root, base = reachable[rng.randrange(len(reachable))]
        edits: list[dict[str, object]] = [{}, {}]
        for label in rng.sample(labels, k=min(3, len(labels))):
            domain = domains[label]
            if len(domain) < 2:
                continue
            if label in candidates:
                value = domain[rng.randrange(len(domain))]
                edits[0][label] = value
                edits[1][label] = value
            else:
                edits[0][label] = domain[rng.randrange(len(domain))]
                edits[1][label] = domain[rng.randrange(len(domain))]
        perturbed.append(
            (root, (_rebuild(base[0], edits[0]), _rebuild(base[1], edits[1])))
        )
    return perturbed


def _sample_inputs(universe, count, rng):
    inputs = []
    for _ in range(count):
        inputs.append((rng.choice(universe), rng.random() < 0.5))
    return inputs
