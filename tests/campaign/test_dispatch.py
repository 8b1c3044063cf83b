"""Cost-model dispatch and per-campaign telemetry.

Covers the scheduling policy -- largest-first unit submission with more
than one worker, list order with one -- and the telemetry lifecycle:
counters reset per campaign and ride on ``CampaignResult`` instead of
only a process global.
"""

from __future__ import annotations

from repro import obs
from repro.bench import fig2
from repro.bench.configs import QUICK
from repro.campaign import scheduler
from repro.campaign.executor import Executor
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import (
    CampaignUnit,
    _predicted_states,
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


def _task(imem_size: int, defense: Defense = Defense.NONE) -> VerificationTask:
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


class _RecordingExecutor(Executor):
    """Inline executor posing as a two-slot pool, recording the imem
    size of every submitted item."""

    def __init__(self):
        super().__init__(1)
        self.width = 2
        self.submitted_sizes: list[int] = []

    def run(self, items, skip=None):
        self.submitted_sizes.extend(
            item.task.core_factory().params.imem_size for item in items
        )
        return super().run(items, skip)


def _record(monkeypatch) -> _RecordingExecutor:
    """Make the scheduler build a recorder as its executor."""
    executor = _RecordingExecutor()
    monkeypatch.setattr(
        scheduler, "Executor", lambda n_workers, max_items=None: executor
    )
    return executor


# ----------------------------------------------------------------------
# Largest-first unit submission
# ----------------------------------------------------------------------
def test_predicted_states_orders_by_the_cost_model():
    small, big = _task(2), _task(3)
    assert _predicted_states(big, 6) > _predicted_states(small, 6)
    assert _predicted_states(small, 12) > _predicted_states(small, 6)


def test_units_are_submitted_largest_first(monkeypatch):
    """The small unit is listed first but, with two workers, the big
    one's shards must reach the executor first (results still align
    with the unit list)."""
    units = [
        CampaignUnit("t", ("small",), _task(2)),
        CampaignUnit("t", ("big",), _task(3)),
    ]
    executor = _record(monkeypatch)
    results = run_campaign(units, n_workers=2)
    assert [r.key for r in results] == [("small",), ("big",)]
    assert executor.submitted_sizes, "nothing was submitted"
    split = executor.submitted_sizes.index(2)
    assert set(executor.submitted_sizes[:split]) == {3}, (
        "big-unit shards were not all submitted before the small unit's: "
        f"{executor.submitted_sizes}"
    )
    # And ordering does not perturb outcomes vs plain ``verify``.
    for got, unit in zip(results, units):
        want = verify(unit.task)
        assert got.outcome.kind == want.kind
        assert got.outcome.stats == want.stats


def test_equal_cost_units_keep_list_order(monkeypatch):
    units = [
        CampaignUnit("t", (label,), _task(2)) for label in ("a", "b", "c")
    ]
    executor = _record(monkeypatch)
    run_campaign(units, n_workers=2)
    assert executor.submitted_sizes == [2] * len(executor.submitted_sizes)


def _traced_order(units, n_workers: int, event: str):
    """Run a campaign traced; return it and the units named by ``event``."""
    with obs.tracing() as recorder:
        results = run_campaign(units, n_workers=n_workers)
    named = []
    for record in recorder.events:
        unit = dict(record.attrs).get("unit")
        if record.name == event and unit not in named:
            named.append(unit)
    return results, named


def test_one_worker_runs_units_in_list_order(monkeypatch):
    """The inline executor balances nothing, so it runs the fig2-mini
    grid with ROB sizes (2, 3) in list order and each unit finishes
    (and reaches the log) in turn; two workers still submit largest
    first.  Outcomes are the same either way."""
    units = fig2.units(
        QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2, 3)
    )
    keys = ["/".join(unit.key) for unit in units]
    inline, done = _traced_order(units, 1, "unit.done")
    assert done == keys
    _record(monkeypatch)
    pooled, submitted = _traced_order(units, 2, "shard.submit")
    predicted = {
        "/".join(unit.key): _predicted_states(
            unit.task, len(unit.task.build_roots())
        )
        for unit in units
    }
    assert submitted == sorted(keys, key=predicted.get, reverse=True)
    assert submitted != keys
    for got, want in zip(pooled, inline):
        assert got.outcome.kind == want.outcome.kind
        assert got.outcome.stats == want.outcome.stats


# ----------------------------------------------------------------------
# Telemetry lifecycle
# ----------------------------------------------------------------------
def test_results_carry_the_campaign_telemetry():
    units = [CampaignUnit("t", ("a",), _task(2))]
    results = run_campaign(units, n_workers=1)
    assert results[0].telemetry is not None
    assert results[0].telemetry.backend == "serial"
    assert results[0].telemetry is scheduler.LAST_TELEMETRY


def test_telemetry_resets_between_campaigns():
    """A many-shard campaign must not leak counters into the next."""
    units = [
        CampaignUnit("t", (label,), _task(2)) for label in ("a", "b", "c")
    ]
    run_campaign(units, n_workers=1)
    assert scheduler.LAST_TELEMETRY.shards == 3
    # A lone unit on one slot runs as one whole-task batch.
    results = run_campaign(units[:1], n_workers=1)
    assert scheduler.LAST_TELEMETRY.shards == 1
    assert results[0].telemetry.shards == 1
    assert results[0].telemetry.steals == 0


def test_serial_path_resets_telemetry_too():
    """The inline n_workers=1 executor re-points the global too."""
    stale = scheduler.LAST_TELEMETRY
    units = [CampaignUnit("t", ("a",), _task(2))]
    results = run_campaign(units, n_workers=1)
    assert scheduler.LAST_TELEMETRY is not stale
    assert scheduler.LAST_TELEMETRY.backend == "serial"
    assert results[0].telemetry is scheduler.LAST_TELEMETRY


def test_shared_telemetry_instance_across_results():
    units = [
        CampaignUnit("t", ("a",), _task(2)),
        CampaignUnit("t", ("b",), _task(2)),
    ]
    results = run_campaign(units, n_workers=1)
    assert results[0].telemetry is results[1].telemetry
