"""Campaign execution backends.

The scheduler plans shards; a backend runs them.  Two implementations
share one contract (:class:`ExecutionBackend`):

- :class:`SerialBackend` -- inline, lazy, in submission order,
- :class:`ProcessPoolBackend` -- the process fan-out.

:func:`make_executor` is the one rule that picks between them: one
worker runs inline, more run a pool.  Merged campaign results are
bit-identical across both (the shards are deterministic pure functions
and the merge replays serial order); the choice only moves wall-clock
around.
"""

from repro.campaign.backends.base import (
    BUDGET_NOTE,
    ExecutionBackend,
    ShardFailure,
    WorkItem,
    budget_outcome,
    collect_results,
    execute_item,
    resolve_workers,
)
from repro.campaign.backends.process import ProcessPoolBackend
from repro.campaign.backends.serial import SerialBackend


def make_executor(
    n_workers: int | None, max_items: int | None = None
) -> ExecutionBackend:
    """The executor for ``n_workers`` (``None``: one per CPU).

    One worker runs items inline; more run a process pool, never wider
    than ``max_items`` when the caller knows how many it will submit.
    """
    width = resolve_workers(n_workers)
    if width == 1:
        return SerialBackend()
    if max_items is not None:
        width = max(1, min(width, max_items))
    return ProcessPoolBackend(width)


__all__ = [
    "BUDGET_NOTE",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShardFailure",
    "WorkItem",
    "budget_outcome",
    "collect_results",
    "execute_item",
    "make_executor",
    "resolve_workers",
]
