"""The inline backend: one shard at a time, in this process.

``SerialBackend`` is the one-worker executor: no processes, no
timing -- items run lazily
inside :meth:`as_completed`, in submission order, which is exactly the
serial engine's exploration order because the scheduler submits shards
serially-first.  Laziness matters: the scheduler cancels serially-dead
shards between yields (short-circuiting), and a cancelled item here was
genuinely never run -- the same work-saving the process backend gets
from racing ahead.
"""

from __future__ import annotations

from typing import Iterator

from repro.campaign.backends.base import ExecutionBackend, ShardFailure, WorkItem
from repro.mc.result import Outcome


class SerialBackend(ExecutionBackend):
    """Run every shard inline, lazily, in submission order."""

    name = "serial"

    def __init__(self) -> None:
        self._queue: dict[int, WorkItem] = {}  # insertion-ordered
        self._next_ticket = 0

    def capacity(self) -> int:
        return 1

    def submit_unit(self, item: WorkItem) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        self._queue[ticket] = item
        return ticket

    def cancel(self, ticket: int) -> bool:
        # Everything queued is cancellable -- nothing runs eagerly.
        return self._queue.pop(ticket, None) is not None

    def as_completed(self) -> Iterator[tuple[int, Outcome]]:
        while self._queue:
            ticket = next(iter(self._queue))
            item = self._queue.pop(ticket)
            try:
                outcome = item.run()
            except Exception as exc:
                outcome = ShardFailure(repr(exc), exc)
            yield ticket, outcome
