"""Near-miss negatives: the same status-reply shapes, kept safe or off
the pool graph entirely."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardFailure:
    message: str


@dataclass(frozen=True)
class SpecMiss:
    spec_fp: int
    failure: "ShardFailure | None" = field(default=None)


class ProgressSnapshot:  # written as JSON by the coordinator, never pickled
    render = staticmethod(lambda snapshot: str(snapshot))


def _make_render_helper():
    class NeverShipped:  # local AND unslotted, but unreachable from pool roots
        fmt = staticmethod(lambda snapshot: str(snapshot))

    return NeverShipped
