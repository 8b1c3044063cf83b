"""Golden status-reply violations: one per rule, reachable from the
replies a pool shard returns instead of a bare outcome (TracedOutcome /
ShardFailure)."""

from dataclasses import dataclass, field
from typing import Callable


def _make_detail_class():
    class LocalDetail:  # function-local, yet carried inside a failure reply
        def __init__(self, trace):
            self.trace = trace

    return LocalDetail


class BareContext:  # module-level but no declared instance layout
    def __init__(self, value):
        self.value = value


@dataclass
class ShardFailure:
    detail: "LocalDetail"
    context: "BareContext"
    retry: Callable[[], None]
    attempts: int = field(default_factory=lambda: 0)


@dataclass(frozen=True)
class TracedOutcome:
    outcome: "ShardFailure | None"
    batch: tuple = ()
