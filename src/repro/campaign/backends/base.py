"""The execution-backend contract: where campaign shards actually run.

The campaign scheduler (:mod:`repro.campaign.scheduler`) plans work as
:class:`WorkItem` values -- one picklable, self-contained shard each: a
:class:`repro.core.verifier.VerificationTask` over a contiguous batch of
a unit's roots.  *Where* those items execute is the backend's business:

- :class:`repro.campaign.backends.serial.SerialBackend` runs them inline
  (the deterministic reference),
- :class:`repro.campaign.backends.process.ProcessPoolBackend` fans them
  over a local ``ProcessPoolExecutor`` (the historical behavior).

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
from repro.mc.result import TIMEOUT, Outcome, SearchStats

if TYPE_CHECKING:  # imported lazily at runtime to keep workers light
    from repro.core.verifier import VerificationTask

#: ``note`` attached to outcomes synthesized when the campaign budget
#: expires before a shard could run.
BUDGET_NOTE = "campaign budget exhausted"

#: The names ``run_campaign``'s string ``backend`` argument accepts.
BACKEND_NAMES = ("serial", "process")


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
    """

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"ShardFailure({self.message!r})"


def resolve_workers(n_workers: int | None) -> int:
    """``None`` means one worker per CPU (the campaign default)."""
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    return n_workers


def build_named_backend(name: str, n_workers: int | None = None):
    """Construct a backend from its CLI name."""
    if name == "serial":
        from repro.campaign.backends.serial import SerialBackend

        return SerialBackend()
    if name == "process":
        from repro.campaign.backends.process import ProcessPoolBackend

        return ProcessPoolBackend(resolve_workers(n_workers))
    raise ValueError(
        f"unknown backend {name!r}; expected an ExecutionBackend "
        f"instance or one of {BACKEND_NAMES}"
    )


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
            raise RuntimeError(f"{label} failed: {outcome.message}")
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

    ``spec_fp`` optionally carries the content fingerprint of the
    task's *spec* (the task stripped of roots and limits -- the heavy,
    per-unit-constant part).  Backends that keep workers hot use it to
    ship the spec once per worker and reference it by fingerprint
    thereafter (see :mod:`repro.campaign.backends.specs`); backends
    that do not simply ignore it.
    """

    task: "VerificationTask | None" = None
    fuzz: object | None = None
    spec_fp: int | None = None

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
        (mirroring the serial path's pre-unit deadline check).
        """
        deadline = self.limits.deadline
        if deadline is not None and clock.monotonic() >= deadline:
            return budget_outcome()
        with obs.span("shard.run", fuzz=self.fuzz is not None):
            if self.fuzz is not None:
                return self.fuzz.run()
            from repro.core.verifier import verify

            return verify(self.task)


def execute_item(item: WorkItem) -> Outcome:
    """Module-level trampoline so pools can pickle the call by reference."""
    return item.run()


class ExecutionBackend:
    """Abstract executor of :class:`WorkItem` shards (see module docs)."""

    #: Human-readable backend kind (``"serial"`` / ``"process"``);
    #: logged into campaign headers.
    name: str = "abstract"

    # -- the four core operations --------------------------------------
    def capacity(self) -> int:
        """Current parallel width (worker slots able to run items now)."""
        raise NotImplementedError

    def outstanding(self) -> int:
        """Items queued or occupying a worker slot right now.

        Counts cancelled-but-unpreemptable items still running (they
        hold a slot), which scheduler-side bookkeeping cannot see; live
        status reports it as the in-flight count.
        """
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

    # -- status hooks (observability only; see repro.obs.live) ----------
    #: The campaign's :class:`repro.obs.live.StatusPublisher`, if any.
    _status_publisher = None

    def set_status_publisher(self, publisher) -> None:
        """Attach (or with ``None`` detach) the campaign's publisher.

        Backends call :meth:`_publish_status` from their wait loops so
        snapshots keep flowing while the scheduler blocks; everything
        here is observability-only and never touches results.
        """
        self._status_publisher = publisher

    def _publish_status(self) -> None:
        """Tick the attached publisher, if any (rate-limited there)."""
        if self._status_publisher is not None:
            self._status_publisher.tick(self)

    def close(self) -> None:
        """Release workers and transports; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
