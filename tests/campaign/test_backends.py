"""Executor equivalence: inline and pool campaigns both equal ``verify``.

The executor contract's central promise: a campaign's merged outcomes --
verdicts, counterexamples *and* search statistics -- do not depend on
*where* shards execute, because every shard is a deterministic pure
function of its picklable :class:`WorkItem` and the merge replays serial
LIFO order.  The matrix here runs the CI mini grids inline (one worker)
and on a pool (four), each against plain ``verify`` on every unit, plus
the failure paths: campaign budgets, cancellation and shard failures.
"""

from __future__ import annotations

import pytest

from repro.bench import ablation, fig2
from repro.bench.configs import QUICK
from repro import obs
from repro.campaign.backends import (
    ProcessPoolBackend,
    SerialBackend,
    WorkItem,
    execute_item,
)
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import BUDGET_NOTE, CampaignUnit, run_campaign
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.obs.recorder import TracedOutcome
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


def _assert_bit_identical(references, results, label):
    for reference, result in zip(references, results, strict=True):
        assert result.outcome.kind == reference.kind, (label, result.key)
        assert result.outcome.stats == reference.stats, (label, result.key)
        assert (
            result.outcome.counterexample == reference.counterexample
        ), (label, result.key)


# ----------------------------------------------------------------------
# The equivalence matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_backend_matrix_bit_identical(grid):
    """1 worker (inline) / 4 workers (pool) x {fig2-mini, ablation-mini}
    both match ``verify`` on every unit at root-batch granularity."""
    units = GRIDS[grid]()
    assert units
    references = [verify(unit.task) for unit in units]
    for n_workers, name in ((1, "serial"), (4, "process")):
        results = run_campaign(units, n_workers=n_workers)
        assert results[0].telemetry.backend == name
        _assert_bit_identical(references, results, name)


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
    n_workers = {"serial": 1, "process": 2}[backend]
    results = run_campaign(units, n_workers=n_workers, budget_s=0.0)
    assert results[0].telemetry.backend == backend
    assert all(r.outcome.timed_out for r in results)
    assert all(r.outcome.note == BUDGET_NOTE for r in results)


# ----------------------------------------------------------------------
# Shard failures
# ----------------------------------------------------------------------
class _RaisingItem(WorkItem):
    def run(self):
        raise RuntimeError("boom: deterministic shard bug")


@pytest.mark.parametrize("name", ["serial", "process"])
def test_backends_deliver_shard_failures_instead_of_raising(name):
    """A raising shard surfaces as a ShardFailure completion, so the
    scheduler (not the backend) decides whether it was serially dead.
    In a pool child the raise reaches the coordinator through
    ``future.result()``."""
    from repro.campaign.backends import ShardFailure

    build = {"serial": SerialBackend, "process": lambda: ProcessPoolBackend(1)}
    with build[name]() as backend:
        ticket = backend.submit_unit(_RaisingItem(_task(Defense.NONE)))
        [(done, outcome)] = list(backend.as_completed())
    assert done == ticket
    assert isinstance(outcome, ShardFailure)
    assert "boom" in outcome.message
    assert isinstance(outcome.error, RuntimeError)


def test_traced_execute_item_ships_spans_and_the_untraced_outcome():
    """The pool entry point: a traced call wraps the very outcome an
    untraced call returns, with the shard's engine spans alongside."""
    item = WorkItem(_task(Defense.NONE))
    plain = execute_item(item, False)
    traced = execute_item(item, True)
    assert isinstance(traced, TracedOutcome)
    assert traced.outcome.stats == plain.stats
    assert traced.outcome.counterexample == plain.counterexample
    names = {span.name for span in traced.batch.spans}
    assert {"shard.run", "engine.search"} <= names
    assert obs.recorder() is None  # the scoped recorder was uninstalled


def test_relevant_shard_failure_aborts_the_campaign(monkeypatch):
    """A failure on a shard the merge still needs raises with the unit
    id, chained from the exception the unit raised (one worker keeps
    the unit's own traceback)."""
    from repro.campaign import scheduler as sched

    monkeypatch.setattr(
        sched.WorkItem,
        "run",
        lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    with pytest.raises(RuntimeError, match="t/a.*boom") as excinfo:
        run_campaign(
            [CampaignUnit("t", ("a",), _task(Defense.NONE))], n_workers=1
        )
    cause = excinfo.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert str(cause) == "boom"
    assert cause.__traceback__ is not None
