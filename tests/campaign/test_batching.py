"""Root-batch dispatch and hot-worker spec caching.

The batching contract: a shard carrying a contiguous batch of a unit's
roots is searched by one ``Explorer`` in serial LIFO order, so its
outcome is the serial merge of those roots and batch boundaries can
never perturb results.  The spec contract: shipping a unit's spec by
content fingerprint instead of re-pickling it per shard changes what
crosses the pool boundary, not what runs -- outcomes stay bit-identical
and a cold process degrades to one extra round trip (``SpecMiss``).
"""

from __future__ import annotations

from dataclasses import replace

from repro import obs
from repro.bench import table2
from repro.bench.configs import QUICK
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
    _cost_model,
    _plan_batches,
    run_campaign,
)
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
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


def test_root_batch_prediction_scales_with_its_roots():
    """Each submitted batch is predicted as roots x width ^ depth, so
    the cost model ranks batches by their share of the unit's roots."""
    task = _task(2)
    with obs.tracing() as recorder:
        run_campaign(
            [CampaignUnit("t", ("a",), task)], backend=_RecordingBackend(2)
        )
    width, depth = _cost_model(task)
    predicted = [
        dict(event.attrs)["predicted"]
        for event in recorder.events
        if event.name == "shard.submit"
    ]
    assert sorted(predicted) == sorted(n * width**depth for n in (2, 2, 1, 1))


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

