"""Root-batch planning and dispatch.

The batching contract: a shard carrying a contiguous batch of a unit's
roots is searched by one ``Explorer`` in serial LIFO order, so its
outcome is the serial merge of those roots and batch boundaries can
never perturb results.  Every shard crosses the pool whole, so a process
pool runs exactly what the inline executor runs.
"""

from __future__ import annotations

from dataclasses import replace

from repro import obs
from repro.bench import table2
from repro.bench.configs import QUICK
from repro.campaign import scheduler
from repro.campaign.__main__ import mini_units
from repro.campaign.backends import ProcessPoolBackend, SerialBackend, WorkItem
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
    """Batches tile ``range(count)`` in order, sizes differ by at most
    one, and the larger batches come first."""
    for count in range(1, 10):
        for n in range(1, count + 2):
            batches = _plan_batches(count, n)
            assert batches[0][0] == 0
            assert batches[-1][1] == count
            for (_, prev_end), (start, end) in zip(batches, batches[1:]):
                assert start == prev_end  # contiguous, in order
                assert end > start  # never an empty batch
            assert len(batches) == min(n, count)
            sizes = [end - start for start, end in batches]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] - sizes[-1] <= 1
    assert _plan_batches(6, 4) == [(0, 2), (2, 4), (4, 5), (5, 6)]
    assert _plan_batches(0, 3) == []  # zero-root units plan no slots


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


def _record(monkeypatch, width: int) -> _RecordingBackend:
    """Make the scheduler's executor factory hand out a recorder."""
    backend = _RecordingBackend(width)
    monkeypatch.setattr(
        scheduler, "make_executor", lambda n_workers, max_items=None: backend
    )
    return backend


def test_root_batch_plan_one_shard_per_unit_when_units_fill_capacity(
    monkeypatch,
):
    units = [CampaignUnit("t", (str(i),), _task(2)) for i in range(10)]
    backend = _record(monkeypatch, 2)
    results = run_campaign(units, n_workers=2)
    assert len(backend.items) == 10
    n_roots = len(_task(2).build_roots())
    assert [len(item.task.roots) for item in backend.items] == [n_roots] * 10
    assert results[0].telemetry.shards == 10


def test_root_batch_plan_splits_a_lone_unit_into_contiguous_batches(
    monkeypatch,
):
    task = _task(2)
    roots = task.build_roots()
    assert len(roots) == 6
    backend = _record(monkeypatch, 2)
    run_campaign([CampaignUnit("t", ("a",), task)], n_workers=2)
    # Submitted serial-first (last batch first); in list order the four
    # batches tile the roots contiguously: 2/2/1/1.
    batches = [list(item.task.roots) for item in reversed(backend.items)]
    assert [len(batch) for batch in batches] == [2, 2, 1, 1]
    assert [root for batch in batches for root in batch] == roots


def test_root_batch_prediction_scales_with_its_roots(monkeypatch):
    """Each submitted batch is predicted as roots x width ^ depth, so
    the cost model ranks batches by their share of the unit's roots."""
    task = _task(2)
    _record(monkeypatch, 2)
    with obs.tracing() as recorder:
        run_campaign([CampaignUnit("t", ("a",), task)], n_workers=2)
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
    """1 worker (one inline 6-root batch per unit), 2 workers (3+3) and
    4 workers (2/2/1/1): attack and proof units all merge to ``verify``."""
    for units in (mini_units(), _table2_pair()):
        assert len(units) == 2
        kinds = set()
        references = []
        for unit in units:
            assert len(unit.task.build_roots()) >= 6
            references.append(verify(unit.task))
            kinds.add(references[-1].kind)
        assert kinds == {"attack", "proved"}
        for n_workers in (1, 2, 4):
            results = run_campaign(units, n_workers=n_workers)
            for result, reference in zip(results, references):
                where = f"{n_workers}:{'/'.join(result.key)}"
                assert result.outcome.kind == reference.kind, where
                assert result.outcome.stats == reference.stats, where
                assert (
                    result.outcome.counterexample == reference.counterexample
                ), where


# ----------------------------------------------------------------------
# Process dispatch
# ----------------------------------------------------------------------
def test_process_backend_dispatch_is_bit_identical():
    """Four shards of one unit on two pool children: each crosses the
    pool whole and returns exactly the outcome it returns inline."""
    task = _task(2)
    roots = task.build_roots()
    items = [WorkItem(replace(task, roots=[root])) for root in roots[:4]]
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
            assert outcome.kind == reference.kind
            assert outcome.stats == reference.stats
            assert outcome.counterexample == reference.counterexample
    finally:
        backend.close()

