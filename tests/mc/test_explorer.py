"""Tests for the explicit-state search engine on small, known workloads."""

from __future__ import annotations

import pytest

import time

from repro.core.contracts import sandboxing
from repro.core.products import StepResult
from repro.events import CycleOutput
from repro.core.secrets import secret_memory_pairs
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.instruction import HALT
from repro.isa.params import MachineParams
from repro.mc.explorer import Explorer, Root, SearchLimits
from repro.uarch.config import Defense
from repro.uarch.simple_ooo import simple_ooo

PARAMS = MachineParams(imem_size=3)

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)


def _task(defense, **overrides):
    base = dict(
        core_factory=lambda: simple_ooo(defense, params=PARAMS),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )
    base.update(overrides)
    return VerificationTask(**base)


def test_attack_found_on_insecure_core():
    outcome = verify(_task(Defense.NONE))
    assert outcome.attacked
    assert outcome.counterexample is not None
    assert outcome.stats.states > 0


def test_counterexample_program_contains_a_branch_and_loads():
    outcome = verify(_task(Defense.NONE))
    ops = {inst.op.name for inst in outcome.counterexample.program}
    assert "BRANCH" in ops and "LOAD" in ops


def test_proof_on_secure_core_visits_whole_space():
    outcome = verify(_task(Defense.DELAY_FUTURISTIC))
    assert outcome.proved
    assert outcome.stats.pruned > 0  # contract-invalid programs were pruned


def test_timeout_is_reported():
    outcome = verify(_task(Defense.DELAY_FUTURISTIC, limits=SearchLimits(timeout_s=0)))
    assert outcome.timed_out


def test_max_states_cap_reports_timeout():
    outcome = verify(
        _task(Defense.DELAY_FUTURISTIC, limits=SearchLimits(max_states=100))
    )
    assert outcome.timed_out
    assert outcome.stats.states <= 101


def test_explicit_roots_restrict_the_quantifier():
    # The tiny space only addresses secret cell 3 (imm 0/3), so pin the
    # root that varies cell 3; the other cell's root proves instead.
    roots = [secret_memory_pairs(PARAMS, "single")[-1]]
    outcome = verify(_task(Defense.NONE, roots=roots))
    assert outcome.attacked
    assert outcome.counterexample.root_label == roots[0].label
    unreachable = [secret_memory_pairs(PARAMS, "single")[0]]
    assert verify(_task(Defense.NONE, roots=unreachable)).proved


def test_baseline_and_shadow_schemes_agree_on_verdicts():
    """Both schemes check Eq. (1); verdicts must coincide."""
    for defense in (Defense.NONE, Defense.DELAY_FUTURISTIC):
        shadow = verify(_task(defense, scheme="shadow"))
        baseline = verify(_task(defense, scheme="baseline"))
        assert shadow.kind == baseline.kind, defense


def test_proofs_are_deterministic():
    first = verify(_task(Defense.DELAY_FUTURISTIC))
    second = verify(_task(Defense.DELAY_FUTURISTIC))
    assert first.kind == second.kind
    assert first.stats.states == second.stats.states
    assert first.stats.transitions == second.stats.transitions


def test_every_root_is_searched_with_its_own_memories():
    """Regression: memories are not in snapshots, so crossing into another
    root's subtree must re-install that root's memories.  Put the only
    attackable root first (it is explored *last* by the LIFO stack) and a
    benign root last."""
    attackable = secret_memory_pairs(PARAMS, "single")[-1]  # varies cell 3
    benign = secret_memory_pairs(PARAMS, "single")[0]  # cell 2: unreachable
    outcome = verify(_task(Defense.NONE, roots=[attackable, benign]))
    assert outcome.attacked
    assert outcome.counterexample.root_label == attackable.label
    # The replayed attack must actually use the attackable memories.
    from repro.mc.replay import replay

    task = _task(Defense.NONE, roots=[attackable, benign])
    trace = replay(task.build_product(), outcome.counterexample)
    assert trace[-1].result.failed


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        verify(_task(Defense.NONE, scheme="nonsense"))


def test_expired_deadline_stops_at_the_first_expansion():
    """Regression: the absolute campaign deadline must be checked on every
    expansion.  The strided check let a shard run ``_CLOCK_STRIDE`` (128)
    expansions past a long-expired deadline per tick window."""
    roots = [secret_memory_pairs(PARAMS, "single")[0]]  # a proof subtree
    limits = SearchLimits(deadline=time.monotonic() - 1.0)
    outcome = verify(_task(Defense.NONE, roots=roots, limits=limits))
    assert outcome.timed_out
    assert outcome.stats.states == 1


def test_relative_timeout_keeps_the_strided_check():
    """`timeout_s` is per-task, not shared: overrunning it by a tick
    window is benign, so an expired relative budget is only noticed at
    the first stride boundary."""
    roots = [secret_memory_pairs(PARAMS, "single")[0]]
    outcome = verify(
        _task(Defense.NONE, roots=roots, limits=SearchLimits(timeout_s=0.0))
    )
    assert outcome.timed_out
    assert outcome.stats.states > 1


class _ScriptedFetchMachine:
    """One machine fetching a scripted PC per cycle, then halting."""

    def __init__(self, pcs: tuple[int, ...]):
        self._pcs = pcs
        self._cycle = 0
        self.bundles_seen: list = []
        self.dmem_read = None  # never reads data memory

    @property
    def halted(self) -> bool:
        return self._cycle >= len(self._pcs)

    def reset(self, dmem) -> None:
        self._cycle = 0

    def poll_fetch(self):
        return None if self.halted else self._pcs[self._cycle]

    def fetch_occurrence(self, pc: int) -> int:
        return 0

    def step(self, bundle) -> CycleOutput:
        self.bundles_seen.append(bundle)
        self._cycle += 1
        return CycleOutput(commits=(), membus=(), halted=self.halted)

    def seq_base(self) -> int:
        return 0

    def max_inflight_seq(self):
        return None

    def min_inflight_seq(self):
        return None

    def snapshot(self) -> tuple:
        return (self._cycle,)

    def restore(self, snap: tuple) -> None:
        (self._cycle,) = snap

    def snapshot_words(self, out: list, atoms) -> None:
        out.append(self._cycle << 2)

    def restore_words(self, words, pos: int, atoms) -> int:
        self._cycle = words[pos] >> 2
        return pos + 1


class _ScriptedFetchProduct:
    """Minimal product around one :class:`_ScriptedFetchMachine`, with a
    stateless checker that never prunes or fails."""

    predictors = ["nondet"]
    dmem_sides = (0,)

    def __init__(self, pcs: tuple[int, ...], imem_size: int = 3):
        self.params = MachineParams(imem_size=imem_size)
        self.machines = [_ScriptedFetchMachine(pcs)]

    @property
    def bundles_seen(self) -> list:
        return self.machines[0].bundles_seen

    def reset(self, dmem_pair) -> None:
        self.machines[0].reset(None)

    def clock_control(self):
        return False, (False,)

    def fold_cycle(self, outputs, tails, heads, stepped) -> StepResult:
        return StepResult(pruned=False, failed=False, reason=None)

    def settled(self) -> bool:
        return True

    def checker_snapshot(self, bases) -> tuple:
        return ()

    def checker_restore(self, state: tuple) -> None:
        pass

    def snapshot(self) -> tuple:
        return self.machines[0].snapshot()

    def restore(self, snap: tuple) -> None:
        self.machines[0].restore(snap)


def test_wrapped_fetch_pcs_read_as_halt():
    """Regression: a wrapped/overflowed fetch PC (mispredicted fetch) must
    fetch ``HALT`` like running off the program, not crash the search."""
    product = _ScriptedFetchProduct(pcs=(-5, 2**32))
    explorer = Explorer(
        product, TINY, [Root(label="r", dmem_pair=((), ()))], SearchLimits()
    )
    outcome = explorer.run()
    assert outcome.proved
    assert [b.inst for b in product.bundles_seen] == [HALT, HALT]
    assert all(b.predicted_taken is None for b in product.bundles_seen)
