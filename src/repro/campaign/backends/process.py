"""The process backend: a ``ProcessPoolExecutor`` fan-out.

The executor for more than one worker: shards pickle into worker
processes, results stream back as futures complete.  Every
:class:`~repro.campaign.backends.base.WorkItem` crosses the pool whole
-- task spec, roots and limits in one pickle -- and runs in the child
through :func:`~repro.campaign.backends.base.execute_item`, which also
records the shard's spans when the campaign is tracing.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Iterator

from repro.campaign.backends.base import (
    ExecutionBackend,
    ShardFailure,
    WorkItem,
    execute_item,
    resolve_workers,
)
from repro import obs
from repro.obs.recorder import TracedOutcome
from repro.mc.result import Outcome


class ProcessPoolBackend(ExecutionBackend):
    """Fan shards across local worker processes."""

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self._max_workers = resolve_workers(max_workers)
        self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        self._futures: dict[int, Future] = {}
        self._next_ticket = 0

    def capacity(self) -> int:
        return self._max_workers

    def submit_unit(self, item: WorkItem) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        self._futures[ticket] = self._pool.submit(
            execute_item, item, obs.enabled()
        )
        return ticket

    def cancel(self, ticket: int) -> bool:
        future = self._futures.get(ticket)
        if future is None:
            return True  # already yielded or cancelled: nothing to do
        if future.cancel():
            del self._futures[ticket]
            return True
        return False  # already running; its (stale) result will arrive

    def as_completed(self) -> Iterator[tuple[int, Outcome]]:
        while self._futures:
            by_future = {f: t for t, f in self._futures.items()}
            done, _ = wait(by_future, return_when=FIRST_COMPLETED)
            for future in done:
                ticket = by_future[future]
                # A future cancelled between ``wait`` and here never ran.
                if self._futures.pop(ticket, None) is None or future.cancelled():
                    continue
                try:
                    outcome = future.result()
                except Exception as exc:
                    # The scheduler decides relevance (see ShardFailure):
                    # a raising serially-dead shard must not abort runs
                    # the serial engine would have completed.
                    outcome = ShardFailure(repr(exc), exc)
                if isinstance(outcome, TracedOutcome):
                    # Unwrap before any result inspection.  Pool children
                    # share this host's monotonic clock, so the batch
                    # merges with its timestamps as recorded.
                    recorder = obs.recorder()
                    if recorder is not None:
                        recorder.absorb(outcome.batch)
                    outcome = outcome.outcome
                yield ticket, outcome

    def close(self) -> None:
        self._pool.shutdown(wait=True)
