"""Counters and series for one campaign.

The registry supersedes ``repro.campaign.scheduler.CampaignTelemetry``:
the scheduler (and now the fuzz loop) increments registry counters as it
works, and the old dataclass is *filled from* the registry at campaign
end (:func:`fill_telemetry`) as a compatibility shim -- existing tests
and callers keep reading ``LAST_TELEMETRY`` unchanged while new series
(states/s over time) accumulate here.

Instruments:

- :class:`Counter` -- a monotonically growing sum.
- :class:`Series` -- an append-only ``(t, value)`` list for
  over-time plots (states/s per completed shard).

Like the trace recorder, the registry is plain in-process state: one
module-global ``LAST_REGISTRY`` re-pointed per campaign
(:func:`new_registry`), mirroring the scheduler's ``LAST_TELEMETRY``
convention.  ``snapshot()`` renders everything JSON-safe for the trace
sink.
"""

from __future__ import annotations


class Counter:
    """A named monotonically growing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def inc(self, delta: int | float = 1) -> None:
        self.value += delta


class Series:
    """An append-only ``(t, value)`` time series."""

    __slots__ = ("name", "points")

    def __init__(self, name: str):
        self.name = name
        self.points: list[tuple[float, float]] = []

    def add(self, t: float, value: float) -> None:
        self.points.append((t, value))


class MetricsRegistry:
    """Get-or-create access to named instruments, plus a JSON snapshot."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.series: dict[str, Series] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def time_series(self, name: str) -> Series:
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = Series(name)
        return instrument

    def snapshot(self) -> dict:
        """Everything recorded, as plain JSON-safe data."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "series": {
                name: [[t, v] for t, v in s.points]
                for name, s in sorted(self.series.items())
            },
        }


#: The most recent campaign's registry (diagnostic convenience, mirrors
#: ``scheduler.LAST_TELEMETRY``); re-pointed by :func:`new_registry`.
LAST_REGISTRY: MetricsRegistry | None = None


def new_registry() -> MetricsRegistry:
    """Create a fresh registry and point :data:`LAST_REGISTRY` at it."""
    global LAST_REGISTRY
    registry = MetricsRegistry()
    LAST_REGISTRY = registry
    return registry


def fill_telemetry(telemetry, registry: MetricsRegistry) -> None:
    """The compatibility shim: copy the ``campaign.shards`` counter onto
    the old ``CampaignTelemetry`` dataclass (0 if never recorded).
    """
    counter = registry.counters.get("campaign.shards")
    telemetry.shards = 0 if counter is None else counter.value
