"""The execution-backend contract: where campaign shards actually run.

The campaign scheduler (:mod:`repro.campaign.scheduler`) plans work as
:class:`WorkItem` values -- one picklable, self-contained shard each: a
:class:`repro.core.verifier.VerificationTask` over a contiguous batch of
a unit's roots.  *Where* those items execute is the backend's business:

- :class:`repro.campaign.backends.serial.SerialBackend` runs them inline
  (the one-worker executor),
- :class:`repro.campaign.backends.process.ProcessPoolBackend` fans them
  over a local ``ProcessPoolExecutor``, each item pickled whole into a
  pool child and run there by :func:`execute_item`.

The worker count alone picks between them
(:func:`repro.campaign.backends.make_executor`).

Because a shard's outcome is a pure function of its item -- the search is
deterministic and every input is in the pickle -- the scheduler's merged
results are bit-identical across backends; only wall-clock differs.

Backend contract
----------------
``submit_unit`` enqueues an item and returns a ticket.  ``as_completed``
is an iterator of ``(ticket, outcome)`` pairs that blocks while work is
outstanding and stops when none is; items may be cancelled *between*
yields.  ``cancel`` is best-effort: ``True`` guarantees the ticket will
never be yielded; ``False`` means the item is past the point of no
return and its result will still arrive (the scheduler must tolerate
stale results either way).  ``capacity`` is the backend's current
parallel width -- the signal the scheduler's root-batch planner keys
off.  Backends need no campaign deadline: every item carries it in its
:class:`repro.mc.explorer.SearchLimits`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro import obs
from repro.obs import clock
from repro.obs.recorder import Recorder, TracedOutcome
from repro.mc.result import TIMEOUT, Outcome, SearchStats

if TYPE_CHECKING:  # imported lazily at runtime to keep workers light
    from repro.core.verifier import VerificationTask

#: ``note`` attached to outcomes synthesized when the campaign budget
#: expires before a shard could run.
BUDGET_NOTE = "campaign budget exhausted"

def budget_outcome() -> Outcome:
    """The outcome stood in for work the campaign budget cut off."""
    return Outcome(
        kind=TIMEOUT, elapsed=0.0, stats=SearchStats(), note=BUDGET_NOTE
    )


class ShardFailure:
    """A shard raised instead of returning an outcome.

    Backends deliver this through ``as_completed`` rather than raising,
    because only the *scheduler* knows whether the failing shard still
    matters: a serially-dead shard (its unit already decided by a
    serially-earlier non-proof) is work the serial engine would never
    have run, so its failure is ignored -- exactly like the old pool
    path, which never fetched the result of an obsolete future.  A failure on a shard the merge still needs is
    re-raised by the scheduler: the error is deterministic and would
    fail identically anywhere, so crashing honestly beats retrying.
    ``error`` is the raised exception, which the re-raise chains from.
    """

    __slots__ = ("message", "error")

    def __init__(self, message: str, error: BaseException | None = None):
        self.message = message
        self.error = error

    def __repr__(self) -> str:
        return f"ShardFailure({self.message!r})"


def resolve_workers(n_workers: int | None) -> int:
    """``None`` means one worker per CPU (the campaign default)."""
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    return n_workers


def collect_results(
    backend: "ExecutionBackend", tickets: dict[int, int], count: int,
    label: str = "work item",
) -> list:
    """Drain ``as_completed`` for one wave of tickets; results by position.

    The deterministic fan-out pattern fuzz rounds and minimization waves
    share: ``tickets`` maps ticket -> result position, *every* result is
    collected (completion order never matters), and a
    :class:`ShardFailure` raises -- callers of this helper never submit
    serially-dead work, so a failure is always relevant.
    """
    results: list = [None] * count
    pending = count
    for ticket, outcome in backend.as_completed():
        index = tickets.pop(ticket, None)
        if index is None:
            continue
        if isinstance(outcome, ShardFailure):
            raise RuntimeError(
                f"{label} failed: {outcome.message}"
            ) from outcome.error
        results[index] = outcome
        pending -= 1
        if pending == 0:
            break
    if pending:
        raise RuntimeError(f"backend lost {label} results")
    return results


@dataclass(frozen=True)
class WorkItem:
    """One schedulable shard: everything a worker needs, in one pickle.

    Two item kinds share the schedulable-unit contract (a pure function
    of the pickled fields, so merges are backend-independent):

    - ``task``: a root-batch shard (verify ``task`` outright; its roots
      are a contiguous batch of the unit's, so the outcome equals the
      serial merge of those roots);
    - ``fuzz``: a random-testing unit -- a
      :class:`repro.fuzz.work.FuzzShard` batch or a
      :class:`repro.fuzz.work.MinimizeProbe` delta-debugging candidate
      -- whose ``run()`` returns its own result type instead of an
      :class:`Outcome` (backends pass results through opaquely).
    """

    task: "VerificationTask | None" = None
    fuzz: object | None = None

    @property
    def limits(self):
        """The unit's :class:`repro.mc.explorer.SearchLimits`.

        Search shards carry them on the task, fuzz units on the
        payload.
        """
        if self.task is not None:
            return self.task.limits
        return self.fuzz.limits

    def run(self) -> Outcome:
        """Execute the shard; every backend funnels through here.

        An item that starts after the campaign deadline has already
        passed reports the budget timeout without searching at all
        (the campaign budget's per-item check).
        """
        deadline = self.limits.deadline
        if deadline is not None and clock.monotonic() >= deadline:
            return budget_outcome()
        with obs.span("shard.run", fuzz=self.fuzz is not None):
            if self.fuzz is not None:
                return self.fuzz.run()
            from repro.core.verifier import verify

            return verify(self.task)


def execute_item(item: WorkItem, trace: bool):
    """Run one item in a pool child; pools pickle the call by reference.

    ``trace`` says whether the dispatching campaign is tracing: the item
    then runs on a scoped recorder and the outcome comes back wrapped in
    a :class:`repro.obs.recorder.TracedOutcome` carrying the spans the
    shard recorded.  The dispatching side unwraps it before any result
    inspection, so every verdict path sees what an untraced run would.
    """
    if not trace:
        return item.run()
    recorder = Recorder(worker=f"pid{os.getpid()}")
    previous = obs.install(recorder)
    try:
        outcome = item.run()
    finally:
        obs.install(previous)
    return TracedOutcome(outcome, recorder.batch())


class ExecutionBackend:
    """Abstract executor of :class:`WorkItem` shards (see module docs)."""

    #: Human-readable backend kind (``"serial"`` / ``"process"``);
    #: reported as ``CampaignTelemetry.backend``.
    name: str = "abstract"

    # -- the four core operations --------------------------------------
    def capacity(self) -> int:
        """Current parallel width (worker slots able to run items now)."""
        raise NotImplementedError

    def submit_unit(self, item: WorkItem) -> int:
        """Enqueue one shard; returns its ticket."""
        raise NotImplementedError

    def as_completed(self) -> Iterator[tuple[int, Outcome]]:
        """Yield ``(ticket, outcome)`` as shards finish; see module docs."""
        raise NotImplementedError

    def cancel(self, ticket: int) -> bool:
        """Best-effort cancel; ``True`` iff the ticket will never yield."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker processes; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
