"""Pluggable campaign execution backends.

The scheduler plans shards; a backend runs them.  Two implementations
share one contract (:class:`ExecutionBackend`):

- :class:`SerialBackend` -- inline, lazy, deterministic reference,
- :class:`ProcessPoolBackend` -- the process fan-out (historical
  behavior).

Merged campaign results are bit-identical across both (the shards
are deterministic pure functions and the merge replays serial order);
the backend choice only moves wall-clock around.
"""

from repro.campaign.backends.base import (
    BACKEND_NAMES,
    BUDGET_NOTE,
    ExecutionBackend,
    ShardFailure,
    WorkItem,
    budget_outcome,
    build_named_backend,
    collect_results,
    execute_item,
    resolve_workers,
)
from repro.campaign.backends.process import ProcessPoolBackend
from repro.campaign.backends.serial import SerialBackend
from repro.campaign.backends.specs import (
    ShardEnvelope,
    SpecMiss,
    execute_envelope,
    make_envelope,
    split_spec,
)

__all__ = [
    "BACKEND_NAMES",
    "BUDGET_NOTE",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShardEnvelope",
    "ShardFailure",
    "SpecMiss",
    "WorkItem",
    "budget_outcome",
    "build_named_backend",
    "collect_results",
    "execute_envelope",
    "execute_item",
    "make_envelope",
    "resolve_workers",
    "split_spec",
]
