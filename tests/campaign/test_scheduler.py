"""Tests for the campaign scheduler.

The central property: for every worker count, a campaign's merged
outcomes -- verdicts, counterexamples *and* search statistics -- are
identical to plain ``verify`` on each unit, because per-root subtrees
are independent and the merge replays the serial (LIFO) root order.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.bench import ablation, fig2, table2
from repro.bench.configs import QUICK
from repro.campaign import scheduler
from repro.campaign.log import CampaignLog
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import (
    BUDGET_NOTE,
    CampaignUnit,
    _merge_serial,
    resolve_workers,
    run_campaign,
    verify_sharded,
)
from repro.core.contracts import sandboxing
from repro.core.secrets import secret_memory_pairs
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.mc.replay import replay
from repro.mc.result import ATTACK, TIMEOUT, Outcome, SearchStats
from repro.uarch.config import Defense

PARAMS = MachineParams(imem_size=3)

#: The small universe used by the explorer tests: rich enough for an
#: attack on the insecure core, small enough for second-scale proofs.
TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)


def _task(defense: Defense, **overrides) -> VerificationTask:
    base = dict(
        core_factory=core_spec("simple_ooo", defense=defense, params=PARAMS),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )
    base.update(overrides)
    return VerificationTask(**base)


def _units() -> list[CampaignUnit]:
    return [
        CampaignUnit("t", ("shadow", "insecure"), _task(Defense.NONE)),
        CampaignUnit(
            "t", ("shadow", "delay"), _task(Defense.DELAY_FUTURISTIC)
        ),
    ]


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(None) >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_serial_campaign_matches_plain_verify():
    units = _units()
    results = run_campaign(units, n_workers=1)
    for unit, result in zip(units, results):
        direct = verify(unit.task)
        assert result.outcome.kind == direct.kind
        assert result.outcome.stats == direct.stats


def _assert_matches_verify(units, results):
    """Each result equals ``verify`` on its unit's task, bit for bit."""
    for unit, result in zip(units, results, strict=True):
        direct = verify(unit.task)
        assert result.key == unit.key
        assert result.outcome.kind == direct.kind, unit.key
        assert result.outcome.stats == direct.stats, unit.key
        assert result.outcome.counterexample == direct.counterexample, unit.key


def test_parallel_campaign_is_bit_identical_to_serial():
    """Verdict, counterexample and stats match for any worker count."""
    units = _units()
    _assert_matches_verify(units, run_campaign(units, n_workers=4))


#: Seconds-scale slices of the three campaign-backed experiment grids.
#: (The full Table-2 grid runs 1-vs-4 in
#: ``benchmarks/test_campaign_scaling.py``.)
GRIDS = {
    "fig2": lambda: fig2.units(
        QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2,)
    ),
    "ablation": lambda: ablation.units(QUICK, workloads=ablation.WORKLOADS[:2]),
    "table2": lambda: [
        unit
        for unit in table2.units(QUICK, schemes=("shadow",))
        if unit.key[1] in ("SimpleOoO-S", "SimpleOoO")
    ],
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_campaign_bit_identical_to_serial(grid):
    """Benchmark grid slices, inline at one worker and on a 4-worker
    pool, match ``verify``: verdict, counterexample and stats."""
    units = GRIDS[grid]()
    assert units
    for n_workers in (1, 4):
        _assert_matches_verify(units, run_campaign(units, n_workers=n_workers))


def test_one_worker_runs_one_all_roots_shard_per_unit(monkeypatch):
    """One worker plans one whole-task shard per unit (a one-unit
    ``verify_sharded`` included), and the trace's ``shard.done`` states
    add up to the merged states."""
    submitted = []
    make_executor = scheduler.make_executor

    def recording(n_workers, max_items=None):
        executor = make_executor(n_workers, max_items)

        def submit(item, _submit=executor.submit_unit):
            submitted.append(item)
            return _submit(item)

        executor.submit_unit = submit
        return executor

    monkeypatch.setattr(scheduler, "make_executor", recording)
    units = _units()
    with obs.tracing() as recorder:
        results = run_campaign(units, n_workers=1)
    telemetry = results[0].telemetry
    assert (telemetry.backend, telemetry.capacity) == ("serial", 1)
    assert telemetry.shards == len(units)
    assert len(submitted) == len(units)
    assert {
        item.task.core_factory: list(item.task.roots) for item in submitted
    } == {unit.task.core_factory: unit.task.build_roots() for unit in units}
    done = [
        dict(event.attrs)["states"]
        for event in recorder.events
        if event.name == "shard.done"
    ]
    assert len(done) == len(units)
    assert sum(done) == sum(result.outcome.stats.states for result in results)
    _assert_matches_verify(units, results)

    submitted.clear()
    task = _task(Defense.NONE)
    sharded = verify_sharded(task, n_workers=1)
    assert scheduler.LAST_TELEMETRY.shards == 1
    [item] = submitted
    assert list(item.task.roots) == task.build_roots()
    direct = verify(task)
    assert sharded.kind == direct.kind == ATTACK
    assert sharded.stats == direct.stats
    assert sharded.counterexample == direct.counterexample


def test_log_header_records_the_executor_width():
    """Two workers asked for a one-shard campaign run a one-wide pool,
    and the log header says so, in step with the telemetry."""
    root = secret_memory_pairs(PARAMS, "single")[-1]
    unit = CampaignUnit("t", ("a",), _task(Defense.NONE, roots=[root]))
    handle = io.StringIO()
    [result] = run_campaign([unit], n_workers=2, log=CampaignLog(handle))
    header = json.loads(handle.getvalue().splitlines()[0])
    assert header["type"] == "campaign"
    assert header["n_workers"] == 1
    telemetry = result.telemetry
    assert (telemetry.backend, telemetry.capacity) == ("process", 1)
    assert telemetry.shards == 1


def test_single_root_task_runs_as_one_shard():
    """A one-root task never splits below its root: with 4 workers asked
    for it runs as exactly one shard on a one-wide pool, and replays the
    serial search bit for bit, counterexample included."""
    root = secret_memory_pairs(PARAMS, "single")[-1]  # attackable subtree
    task = _task(Defense.NONE, roots=[root])
    serial = verify(task)
    sharded = verify_sharded(task, n_workers=4)
    telemetry = scheduler.LAST_TELEMETRY
    assert (telemetry.backend, telemetry.capacity) == ("process", 1)
    assert telemetry.shards == 1
    assert serial.attacked and sharded.attacked
    assert sharded.stats == serial.stats
    assert sharded.counterexample == serial.counterexample
    trace = replay(task.build_product(), sharded.counterexample)
    assert trace[-1].result.failed


def test_result_order_follows_unit_order():
    units = list(reversed(_units()))
    results = run_campaign(units, n_workers=4)
    assert [r.key for r in results] == [u.key for u in units]


def test_sharded_attack_short_circuits_and_replays():
    """Forced-ATTACK case: the serially-first root attacks, the sibling
    roots are short-circuited, and the merged counterexample replays
    through ``mc.replay`` exactly like the serial one."""
    roots = secret_memory_pairs(PARAMS, "single")
    attackable = roots[-1]  # varies secret cell 3 (reachable by TINY)
    benign = roots[0]  # varies cell 2: unreachable, proves
    # The LIFO stack explores the *last* root first, so putting the
    # attackable root last makes it the serial engine's first subtree:
    # the benign siblings must be short-circuited, not merged.
    task = _task(Defense.NONE, roots=[benign, benign, attackable])
    serial = verify(task)
    sharded = verify_sharded(task, n_workers=4)
    assert serial.attacked and sharded.attacked
    assert sharded.counterexample == serial.counterexample
    assert sharded.stats == serial.stats  # siblings contributed nothing
    trace = replay(task.build_product(), sharded.counterexample)
    assert trace[-1].result.failed


def test_sharded_attack_in_the_middle_merges_earlier_siblings():
    roots = secret_memory_pairs(PARAMS, "single")
    attackable = roots[-1]
    benign = roots[0]
    # Serial order explores [benign(last), attackable, benign(first)]:
    # the merged stats must include the serially-earlier benign subtree.
    task = _task(Defense.NONE, roots=[benign, attackable, benign])
    serial = verify(task)
    sharded = verify_sharded(task, n_workers=4)
    assert serial.attacked and sharded.attacked
    assert sharded.counterexample == serial.counterexample
    assert sharded.stats == serial.stats


def test_sharded_proof_sums_every_root():
    task = _task(Defense.DELAY_FUTURISTIC)
    serial = verify(task)
    sharded = verify_sharded(task, n_workers=2)
    assert serial.proved and sharded.proved
    assert sharded.stats == serial.stats


def test_campaign_budget_cuts_units_off():
    results = run_campaign(_units(), n_workers=1, budget_s=0.0)
    assert all(r.outcome.timed_out for r in results)
    assert all(r.outcome.note == BUDGET_NOTE for r in results)


def test_parallel_campaign_budget_cuts_units_off():
    with obs.tracing() as recorder:
        results = run_campaign(_units(), n_workers=2, budget_s=0.0)
    assert all(r.outcome.timed_out for r in results)
    # Units the budget cut off still report ``unit.done`` to the trace.
    done = [event for event in recorder.events if event.name == "unit.done"]
    assert len(done) == len(results)


def test_unpicklable_task_is_rejected_with_guidance():
    unit = CampaignUnit(
        "t",
        ("shadow", "lambda"),
        _task(Defense.NONE, core_factory=lambda: None),
    )
    with pytest.raises(ValueError, match="CoreSpec"):
        run_campaign([unit], n_workers=2)


def test_lambda_factories_still_work_serially():
    from repro.uarch.simple_ooo import simple_ooo

    unit = CampaignUnit(
        "t",
        ("shadow", "lambda"),
        _task(
            Defense.NONE,
            core_factory=lambda: simple_ooo(Defense.NONE, params=PARAMS),
        ),
    )
    [result] = run_campaign([unit], n_workers=1)
    assert result.outcome.attacked


# ----------------------------------------------------------------------
# The serial-order merge: serially-later shards contribute nothing
# ----------------------------------------------------------------------
def _outcome(kind: str, states: int, note: str | None = None) -> Outcome:
    return Outcome(
        kind=kind,
        elapsed=0.25,
        stats=SearchStats(states, states + 1, 1, 2, {"assume": 1}),
        note=note,
    )


def test_merge_ignores_pending_shards_behind_the_deciding_one():
    """The serial engine explores list order *reversed*: outcomes[-1] is
    serially first.  An attack there decides the merge even while the
    serially-later outcomes[0] is still pending -- and its stats must not
    be summed once it is cancelled."""
    attack = _outcome(ATTACK, states=7)
    merged = _merge_serial([None, attack])
    assert merged is not None and merged.kind == ATTACK
    assert merged.stats == attack.stats  # pending sibling contributed nothing


def test_merge_blocks_on_pending_serially_earlier_shards():
    attack = _outcome(ATTACK, states=7)
    assert _merge_serial([attack, None]) is None


def test_merge_preserves_the_budget_note_of_the_deciding_shard():
    cutoff = _outcome(TIMEOUT, states=3, note=BUDGET_NOTE)
    merged = _merge_serial([None, cutoff])
    assert merged is not None and merged.kind == TIMEOUT
    assert merged.note == BUDGET_NOTE
    assert merged.stats == cutoff.stats
