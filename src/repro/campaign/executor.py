"""The campaign executor: a list of shards in, ``(index, outcome)`` out.

The campaign scheduler (:mod:`repro.campaign.scheduler`), fuzz rounds
and delta-debugging waves all plan their work as a list of
:class:`WorkItem` values -- one picklable, self-contained shard each --
and hand the whole list to one :class:`Executor`.  The worker count
alone picks where the items run: one worker runs them inline, lazily
and in list order; more fan them over a local ``ProcessPoolExecutor``,
each item pickled whole into a pool child and run there by
:func:`execute_item`.

Because a shard's outcome is a pure function of its item -- the search
is deterministic and every input is in the pickle -- merged results are
bit-identical across worker counts; only wall-clock differs.  The
executor needs no campaign deadline: every item carries it in its
:class:`repro.mc.explorer.SearchLimits`.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

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

    :meth:`Executor.run` yields this rather than raising, because only
    the *caller* knows whether the failing shard still matters: a
    serially-dead shard (its unit already decided by a serially-earlier
    non-proof) is work the serial engine would never have run, so the
    scheduler ignores its failure.  A failure on a shard the merge still
    needs is re-raised by the caller: the error is deterministic and
    would fail identically anywhere, so crashing honestly beats
    retrying.  ``error`` is the raised exception, which the re-raise
    chains from.
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


@dataclass(frozen=True)
class WorkItem:
    """One schedulable shard: everything a worker needs, in one pickle.

    Two item kinds share the executor (a pure function of the pickled
    fields, so merges are worker-count-independent):

    - ``task``: a root-batch shard (verify ``task`` outright; its roots
      are a contiguous batch of the unit's, so the outcome equals the
      serial merge of those roots);
    - ``fuzz``: a random-testing unit -- a
      :class:`repro.fuzz.work.FuzzShard` batch or a
      :class:`repro.fuzz.work.MinimizeProbe` delta-debugging candidate
      -- whose ``run()`` returns its own result type instead of an
      :class:`Outcome` (the executor passes results through opaquely).
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
        """Execute the shard; both executor paths funnel through here.

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
    shard recorded.  The executor unwraps it before yielding, so every
    verdict path sees what an untraced run would.
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


class Executor:
    """Run lists of :class:`WorkItem` inline (one worker) or in a pool.

    ``n_workers`` (``None``: one per CPU) picks the path; a pool is
    never wider than ``max_items`` when the caller knows how many items
    it will run.  ``name`` (``"serial"`` / ``"process"``) and ``width``
    are what :class:`repro.campaign.scheduler.CampaignTelemetry`
    records.  The pool starts on first use and lives until
    :meth:`close`, so one executor serves every round of a fuzz
    campaign.
    """

    def __init__(self, n_workers: int | None, max_items: int | None = None):
        width = resolve_workers(n_workers)
        self.name = "serial" if width == 1 else "process"
        if width > 1 and max_items is not None:
            width = max(1, min(width, max_items))
        self.width = width
        self._pool: ProcessPoolExecutor | None = None

    def run(
        self,
        items: Sequence[WorkItem],
        skip: Callable[[int], bool] | None = None,
    ) -> Iterator[tuple[int, object]]:
        """Yield ``(index, outcome)`` for ``items``, in completion order.

        A raising item yields a :class:`ShardFailure`.  ``skip(index)``
        is asked between yields: inline, an item whose ``skip`` is true
        when its turn comes never runs and is never yielded; in the
        pool, pending items it names are cancelled, while one already
        running still yields its (stale) outcome.
        """
        if self.name == "serial":
            return self._run_inline(items, skip)
        return self._run_pool(items, skip)

    def gather(
        self, items: Sequence[WorkItem], label: str = "work item"
    ) -> list:
        """Every item's outcome, in index order; a failure raises.

        For callers that need every result (fuzz rounds, ddmin waves):
        none of their items is serially dead, so any
        :class:`ShardFailure` is relevant.
        """
        results: list = [None] * len(items)
        for index, outcome in self.run(items):
            if isinstance(outcome, ShardFailure):
                raise RuntimeError(
                    f"{label} failed: {outcome.message}"
                ) from outcome.error
            results[index] = outcome
        return results

    @staticmethod
    def _run_inline(items, skip):
        for index, item in enumerate(items):
            if skip is not None and skip(index):
                continue
            try:
                outcome = item.run()
            except Exception as exc:
                outcome = ShardFailure(repr(exc), exc)
            yield index, outcome

    def _run_pool(self, items, skip):
        if self._pool is None and items:
            self._pool = ProcessPoolExecutor(max_workers=self.width)
        trace = obs.enabled()
        pending = {
            self._pool.submit(execute_item, item, trace): index
            for index, item in enumerate(items)
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    outcome = future.result()
                except Exception as exc:
                    outcome = ShardFailure(repr(exc), exc)
                if isinstance(outcome, TracedOutcome):
                    # Pool children share this host's monotonic clock, so
                    # the batch merges as recorded.
                    recorder = obs.recorder()
                    if recorder is not None:
                        recorder.absorb(outcome.batch)
                    outcome = outcome.outcome
                yield index, outcome
                if skip is not None:
                    for other, other_index in list(pending.items()):
                        if skip(other_index) and other.cancel():
                            del pending[other]

    def close(self) -> None:
        """Release the worker processes; idempotent.

        Items a caller abandoned (it raised mid-run) and that have not
        started are cancelled rather than run to completion.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
