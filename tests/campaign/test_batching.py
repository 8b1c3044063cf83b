"""Batched dispatch and hot-worker spec caching (scheduler tentpole).

The batching contract: a seeded shard carrying a *contiguous* slice of a
root's first-cycle frontier replays exactly the serial merge of its
singleton shards, so batch boundaries (which calibration moves freely)
can never perturb results.  The same holds one level up: a whole shard
carrying a contiguous batch of a unit's roots is searched by one
``Explorer`` in serial LIFO order, so its outcome is the serial merge of
those roots.  The spec contract: shipping a unit's spec by
content fingerprint instead of re-pickling it per shard changes what
crosses the pool boundary, not what runs -- outcomes stay bit-identical
and a cold process degrades to one extra round trip (``SpecMiss``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import table2
from repro.bench.configs import QUICK
from repro.campaign import scheduler
from repro.campaign.__main__ import mini_units
from repro.campaign.backends import (
    ProcessPoolBackend,
    SerialBackend,
    SpecMiss,
    WorkItem,
    execute_envelope,
    make_envelope,
    split_spec,
)
from repro.campaign.backends import specs as specs_module
from repro.campaign.backends.specs import spec_fingerprint
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import (
    CampaignUnit,
    _Calibration,
    _cost_model,
    _merge_serial,
    _plan_batches,
    _StealGroup,
    run_campaign,
    verify_sharded,
)
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import Explorer, SearchLimits
from repro.uarch.config import Defense

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)


def _task(imem_size: int = 2, defense: Defense = Defense.NONE) -> VerificationTask:
    return VerificationTask(
        core_factory=core_spec(
            "simple_ooo",
            defense=defense,
            params=MachineParams(imem_size=imem_size),
        ),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )


def _first_root_expansion(task: VerificationTask):
    """A single-root subtask plus its first-cycle expansion."""
    root = task.build_roots()[0]
    subtask = replace(task, roots=[root])
    explorer = Explorer(
        subtask.build_product(),
        subtask.space,
        subtask.build_roots(),
        subtask.limits,
    )
    return subtask, explorer.expand_root()


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------
def test_plan_batches_covers_weights_contiguously():
    weights = [5, 1, 1, 1, 8, 1, 1]
    for n in range(1, len(weights) + 2):
        batches = _plan_batches(weights, n)
        assert batches[0][0] == 0
        assert batches[-1][1] == len(weights)
        for (_, prev_end), (start, end) in zip(batches, batches[1:]):
            assert start == prev_end  # contiguous, in order
            assert end > start  # never an empty batch
        assert len(batches) == min(n, len(weights))
    assert _plan_batches([], 3) == []  # zero-root units plan no slots


def test_plan_batches_balances_by_weight_not_count():
    # One dominant entry should sit alone; the light tail groups up.
    batches = _plan_batches([100, 1, 1, 1, 1, 1], 2)
    assert batches == [(0, 1), (1, 6)]


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_calibration_learns_correction_and_grain():
    cal = _Calibration()
    assert cal.grain_states() == float(scheduler.DEFAULT_GRAIN_STATES)
    cal.observe(predicted=1000, states=100, elapsed=0.01)
    assert cal.corrected(1000) == 100.0  # first sample sets directly
    assert cal.grain_states() == max(
        1000.0, 10_000 * scheduler.TARGET_BATCH_SECONDS
    )
    before = cal.correction
    cal.observe(predicted=1000, states=100, elapsed=0.01)
    assert cal.correction == before  # consistent samples converge
    cal.observe(predicted=0, states=0, elapsed=0.0)  # guarded: no-op
    assert cal.samples == 2


# ----------------------------------------------------------------------
# Batch = serial merge of its singletons
# ----------------------------------------------------------------------
def test_batch_outcome_equals_merged_singleton_shards():
    task = _task(3)
    subtask, expansion = _first_root_expansion(task)
    assert len(expansion.entries) >= 4, "need a frontier worth batching"
    batch = tuple(expansion.entries[1:4])
    batched = WorkItem(subtask, batch).run()
    singles = [WorkItem(subtask, (entry,)).run() for entry in batch]
    merged = _merge_serial(singles)
    assert batched.kind == merged.kind
    assert batched.stats == merged.stats
    assert batched.counterexample == merged.counterexample


def test_steal_group_batch_resplit_composes_identically():
    """A stolen multi-entry batch's per-entry racers merge (no prelude)
    to exactly the batch shard they race."""
    task = _task(3)
    subtask, expansion = _first_root_expansion(task)
    batch = tuple(expansion.entries[0:3])
    group = _StealGroup(None, count=len(batch))
    for index, entry in enumerate(batch):
        group.outcomes[index] = WorkItem(subtask, (entry,)).run()
    composed = group.outcome()
    batched = WorkItem(subtask, batch).run()
    assert composed is not None
    assert composed.kind == batched.kind
    assert composed.stats == batched.stats
    assert composed.counterexample == batched.counterexample


def test_campaign_bit_identical_across_forced_grains(monkeypatch):
    """Coarse and fine grains change the shard count, never the result."""
    task = _task(2)
    serial = verify(task)

    coarse = _Calibration()
    coarse.samples = 1
    coarse.states_per_s = 1e15  # huge grain -> min-batch floor
    coarse.correction = 1e-9
    monkeypatch.setattr(scheduler, "_CALIBRATION", coarse)
    sharded = verify_sharded(task, n_workers=4, subroot="always")
    coarse_shards = scheduler.LAST_TELEMETRY.shards
    assert sharded.kind == serial.kind
    assert sharded.stats == serial.stats
    assert sharded.counterexample == serial.counterexample

    fine = _Calibration()
    fine.samples = 1
    fine.states_per_s = 2000.0  # grain floor (1000 states)
    fine.correction = 1e9  # every entry looks huge -> max batches
    planned_grain = fine.grain_states()  # the run's observations move it
    monkeypatch.setattr(scheduler, "_CALIBRATION", fine)
    sharded = verify_sharded(task, n_workers=4, subroot="always")
    fine_shards = scheduler.LAST_TELEMETRY.shards
    assert sharded.kind == serial.kind
    assert sharded.stats == serial.stats
    assert sharded.counterexample == serial.counterexample

    assert fine_shards > coarse_shards, (
        f"forced grains did not move granularity: "
        f"{coarse_shards} vs {fine_shards} shards"
    )
    assert scheduler.LAST_TELEMETRY.grain_states == planned_grain


# ----------------------------------------------------------------------
# Root batches: the plan rule and bit-identity
# ----------------------------------------------------------------------
class _RecordingBackend(SerialBackend):
    """Inline backend posing as ``width`` slots, recording every item."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width
        self.items: list[WorkItem] = []

    def capacity(self) -> int:
        return self.width

    def submit_unit(self, item):
        self.items.append(item)
        return super().submit_unit(item)


def test_root_batch_plan_one_shard_per_unit_when_units_fill_capacity():
    units = [CampaignUnit("t", (str(i),), _task(2)) for i in range(10)]
    backend = _RecordingBackend(2)
    results = run_campaign(units, backend=backend)
    assert len(backend.items) == 10
    n_roots = len(_task(2).build_roots())
    assert [len(item.task.roots) for item in backend.items] == [n_roots] * 10
    assert all(item.entries is None for item in backend.items)
    assert results[0].telemetry.shards == 10


def test_root_batch_plan_splits_a_lone_unit_into_contiguous_batches():
    task = _task(2)
    roots = task.build_roots()
    assert len(roots) == 6
    backend = _RecordingBackend(2)
    run_campaign([CampaignUnit("t", ("a",), task)], backend=backend)
    # Submitted serial-first (last batch first); in list order the four
    # batches tile the roots contiguously: 2/2/1/1.
    batches = [list(item.task.roots) for item in reversed(backend.items)]
    assert [len(batch) for batch in batches] == [2, 2, 1, 1]
    assert [root for batch in batches for root in batch] == roots


def test_subroot_always_keeps_single_root_slots():
    backend = _RecordingBackend(2)
    run_campaign(
        [CampaignUnit("t", ("a",), _task(2))], backend=backend,
        subroot="always",
    )
    assert backend.items
    assert all(len(item.task.roots) == 1 for item in backend.items)
    assert all(item.entries is not None for item in backend.items)


class _RecordingCalibration(_Calibration):
    __slots__ = ("predicted",)

    def __init__(self):
        super().__init__()
        self.predicted: list[int] = []

    def observe(self, predicted, states, elapsed):
        self.predicted.append(predicted)
        super().observe(predicted, states, elapsed)


def test_root_batch_prediction_scales_with_its_roots(monkeypatch):
    """Calibration sees each batch predicted as roots x width ^ depth,
    so measured states per batch do not skew the correction."""
    calibration = _RecordingCalibration()
    monkeypatch.setattr(scheduler, "_CALIBRATION", calibration)
    task = _task(2)
    run_campaign(
        [CampaignUnit("t", ("a",), task)], backend=_RecordingBackend(2)
    )
    width, depth = _cost_model(task)
    assert sorted(calibration.predicted) == sorted(
        n * width**depth for n in (2, 2, 1, 1)
    )


def _table2_pair() -> list[CampaignUnit]:
    """A Table-2 proof cell (shadow/Sodor) and attack cell, 6 roots each."""
    wanted = {("shadow", "Sodor"), ("baseline", "SimpleOoO")}
    return [unit for unit in table2.units(QUICK) if unit.key in wanted]


def test_root_batches_match_verify_on_every_backend_and_capacity():
    """Serial backend (one 6-root batch per unit), 2 workers (3+3) and 4
    workers (2/2/1/1): attack and proof units all merge to ``verify``."""
    for units in (mini_units(), _table2_pair()):
        assert len(units) == 2
        kinds = set()
        references = []
        for unit in units:
            assert len(unit.task.build_roots()) >= 6
            references.append(verify(unit.task))
            kinds.add(references[-1].kind)
        assert kinds == {"attack", "proved"}
        for label, kwargs in (
            ("serial", {"backend": "serial"}),
            ("pool-2", {"n_workers": 2}),
            ("pool-4", {"n_workers": 4}),
        ):
            results = run_campaign(units, **kwargs)
            for result, reference in zip(results, references):
                where = f"{label}:{'/'.join(result.key)}"
                assert result.outcome.kind == reference.kind, where
                assert result.outcome.stats == reference.stats, where
                assert (
                    result.outcome.counterexample == reference.counterexample
                ), where


# ----------------------------------------------------------------------
# Content-addressed specs
# ----------------------------------------------------------------------
def test_spec_fingerprint_shared_across_shard_shapes():
    task = _task(2)
    roots = task.build_roots()
    fp = spec_fingerprint(split_spec(task)[0])
    for sub in (
        replace(task, roots=[roots[0]]),
        replace(task, roots=[roots[-1]]),
        replace(task, limits=SearchLimits(timeout_s=1, deadline=123.0)),
    ):
        assert spec_fingerprint(split_spec(sub)[0]) == fp
    other = spec_fingerprint(split_spec(_task(2, Defense.NOFWD_SPECTRE))[0])
    assert other != fp


def test_execute_envelope_spec_miss_roundtrip(monkeypatch):
    """A cold process bounces a bare fingerprint; re-sending with the
    spec attached runs, warms the cache, and bare sends then succeed."""
    monkeypatch.setattr(specs_module, "_SPECS", {})
    task = _task(2)
    fp = spec_fingerprint(split_spec(task)[0])
    item = WorkItem(task, spec_fp=fp)
    reference = WorkItem(task).run()

    bare = make_envelope(item, with_spec=False)
    assert bare.item.task is None  # the heavy part stayed home
    miss = execute_envelope(bare)
    assert isinstance(miss, SpecMiss) and miss.spec_fp == fp

    warm = make_envelope(item, with_spec=True)
    outcome = execute_envelope(warm)
    assert outcome.kind == reference.kind
    assert outcome.stats == reference.stats

    outcome = execute_envelope(bare)  # cache is warm now
    assert not isinstance(outcome, SpecMiss)
    assert outcome.stats == reference.stats


def test_process_backend_hot_dispatch_is_bit_identical():
    task = _task(2)
    fp = spec_fingerprint(split_spec(task)[0])
    roots = task.build_roots()
    items = [
        WorkItem(replace(task, roots=[root]), spec_fp=fp)
        for root in roots[:4]
    ]
    references = [item.run() for item in items]
    backend = ProcessPoolBackend(max_workers=2)
    try:
        tickets = [backend.submit_unit(item) for item in items]
        got: dict[int, object] = {}
        while len(got) < len(items):
            for ticket, outcome in backend.as_completed():
                got[ticket] = outcome
        for ticket, reference in zip(tickets, references):
            outcome = got[ticket]
            assert not isinstance(outcome, SpecMiss)
            assert outcome.kind == reference.kind
            assert outcome.stats == reference.stats
        assert backend.spec_misses >= 0  # misses are retried, never seen
    finally:
        backend.close()

