"""Backend equivalence: serial and process campaigns are bit-equal.

The backend contract's central promise: a campaign's merged outcomes --
verdicts, counterexamples *and* search statistics -- do not depend on
*where* shards execute, because every shard is a deterministic pure
function of its picklable :class:`WorkItem` and the merge replays serial
LIFO order.  The matrix here runs the CI mini grids through both
backends, plus the failure paths: campaign budgets, cancellation and
shard failures.
"""

from __future__ import annotations

import pytest

from repro.bench import ablation, fig2
from repro.bench.configs import QUICK
from repro.campaign.backends import SerialBackend, WorkItem
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import BUDGET_NOTE, CampaignUnit, run_campaign
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.uarch.config import Defense

PARAMS = MachineParams(imem_size=3)

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)

#: The CI mini grids (the acceptance workloads for backend equivalence).
GRIDS = {
    "fig2-mini": lambda: fig2.units(
        QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2,)
    ),
    "ablation-mini": lambda: ablation.units(
        QUICK, workloads=ablation.WORKLOADS[:2]
    ),
}


def _task(defense: Defense, **overrides) -> VerificationTask:
    base = dict(
        core_factory=core_spec("simple_ooo", defense=defense, params=PARAMS),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )
    base.update(overrides)
    return VerificationTask(**base)


def _assert_bit_identical(serial, results, label):
    assert [r.key for r in results] == [r.key for r in serial]
    for ser, par in zip(serial, results):
        assert par.outcome.kind == ser.outcome.kind, (label, ser.key)
        assert par.outcome.stats == ser.outcome.stats, (label, ser.key)
        assert (
            par.outcome.counterexample == ser.outcome.counterexample
        ), (label, ser.key)


# ----------------------------------------------------------------------
# The equivalence matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_backend_matrix_bit_identical(grid):
    """serial / process x {fig2-mini, ablation-mini} both match the
    historical serial path at root-batch granularity."""
    units = GRIDS[grid]()
    assert units
    serial_path = run_campaign(units, n_workers=1)
    for backend in ("serial", "process"):
        results = run_campaign(units, n_workers=4, backend=backend)
        _assert_bit_identical(serial_path, results, backend)


def test_serial_backend_is_lazy_and_cancellable():
    """Cancelled items never run; completion order is submission order."""
    backend = SerialBackend()
    item = WorkItem(_task(Defense.NONE))
    first = backend.submit_unit(item)
    second = backend.submit_unit(item)
    assert backend.cancel(first)
    done = list(backend.as_completed())
    assert [ticket for ticket, _ in done] == [second]
    assert done[0][1].attacked


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_budget_cuts_off_named_backends(backend):
    units = [
        CampaignUnit("t", ("a",), _task(Defense.NONE)),
        CampaignUnit("t", ("b",), _task(Defense.DELAY_FUTURISTIC)),
    ]
    results = run_campaign(
        units, n_workers=2, budget_s=0.0, backend=backend
    )
    assert all(r.outcome.timed_out for r in results)
    assert all(r.outcome.note == BUDGET_NOTE for r in results)


# ----------------------------------------------------------------------
# Shard failures
# ----------------------------------------------------------------------
class _RaisingItem(WorkItem):
    def run(self):
        raise RuntimeError("boom: deterministic shard bug")


def test_backends_deliver_shard_failures_instead_of_raising():
    """A raising shard surfaces as a ShardFailure completion, so the
    scheduler (not the backend) decides whether it was serially dead."""
    from repro.campaign.backends import ShardFailure

    backend = SerialBackend()
    ticket = backend.submit_unit(_RaisingItem(_task(Defense.NONE)))
    [(done, outcome)] = list(backend.as_completed())
    assert done == ticket
    assert isinstance(outcome, ShardFailure)
    assert "boom" in outcome.message


def test_relevant_shard_failure_aborts_the_campaign(monkeypatch):
    """A failure on a shard the merge still needs raises with the unit id."""
    from repro.campaign import scheduler as sched

    monkeypatch.setattr(
        sched.WorkItem,
        "run",
        lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    with pytest.raises(RuntimeError, match="t/a.*boom"):
        run_campaign(
            [CampaignUnit("t", ("a",), _task(Defense.NONE))],
            backend="serial",
        )
