"""Cost-model dispatch and per-campaign telemetry.

Covers the scheduling policy -- largest-first unit submission -- and
the telemetry lifecycle: counters reset per campaign and ride on
``CampaignResult`` instead of only a process global.
"""

from __future__ import annotations

from repro.campaign import scheduler
from repro.campaign.backends import SerialBackend
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


class _RecordingBackend(SerialBackend):
    """SerialBackend that records the imem size of every submitted item."""

    def __init__(self):
        super().__init__()
        self.submitted_sizes: list[int] = []

    def submit_unit(self, item):
        self.submitted_sizes.append(
            item.task.core_factory().params.imem_size
        )
        return super().submit_unit(item)


def _record(monkeypatch) -> _RecordingBackend:
    """Make the scheduler's executor factory hand out a recorder."""
    backend = _RecordingBackend()
    monkeypatch.setattr(
        scheduler, "make_executor", lambda n_workers, max_items=None: backend
    )
    return backend


# ----------------------------------------------------------------------
# Largest-first unit submission
# ----------------------------------------------------------------------
def test_predicted_states_orders_by_the_cost_model():
    small, big = _task(2), _task(3)
    assert _predicted_states(big, 6) > _predicted_states(small, 6)
    assert _predicted_states(small, 12) > _predicted_states(small, 6)


def test_units_are_submitted_largest_first(monkeypatch):
    """The small unit is listed first but the big one's shards must hit
    the backend first (results still align with the unit list)."""
    units = [
        CampaignUnit("t", ("small",), _task(2)),
        CampaignUnit("t", ("big",), _task(3)),
    ]
    backend = _record(monkeypatch)
    results = run_campaign(units, n_workers=1)
    assert [r.key for r in results] == [("small",), ("big",)]
    assert backend.submitted_sizes, "nothing was submitted"
    split = backend.submitted_sizes.index(2)
    assert set(backend.submitted_sizes[:split]) == {3}, (
        "big-unit shards were not all submitted before the small unit's: "
        f"{backend.submitted_sizes}"
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
    backend = _record(monkeypatch)
    run_campaign(units, n_workers=1)
    assert backend.submitted_sizes == [2] * len(backend.submitted_sizes)


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
