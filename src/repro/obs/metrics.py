"""Counters, gauges, log-bucket histograms and series for one campaign.

The registry supersedes ``repro.campaign.scheduler.CampaignTelemetry``:
the scheduler (and now the fuzz loop) increments registry counters as it
works, and the old dataclass is *filled from* the registry at campaign
end (:func:`fill_telemetry`) as a compatibility shim -- existing tests
and callers keep reading ``LAST_TELEMETRY`` unchanged while new series
(states/s over time, visited load factor) accumulate here.

Instruments:

- :class:`Counter` -- a monotonically growing sum.
- :class:`Gauge` -- a last-value sample.
- :class:`Histogram` -- fixed *log-scale* bucket boundaries
  (:func:`log_bucket_boundaries`): boundary ``k`` is
  ``10**(lo_exp + k/per_decade)``, so relative error per bucket is
  bounded and one layout covers microseconds to minutes.  Observation is one ``bisect`` plus two
  adds.
- :class:`Series` -- an append-only ``(t, value)`` list for
  over-time plots (states/s per completed shard).

Like the trace recorder, the registry is plain in-process state: one
module-global ``LAST_REGISTRY`` re-pointed per campaign
(:func:`new_registry`), mirroring the scheduler's ``LAST_TELEMETRY``
convention.  ``snapshot()`` renders everything JSON-safe for the trace
sink.
"""

from __future__ import annotations

from bisect import bisect_right


def log_bucket_boundaries(
    lo_exp: int = -6, hi_exp: int = 2, per_decade: int = 4
) -> tuple[float, ...]:
    """Fixed log-scale boundaries: ``10**(lo_exp + k/per_decade)``.

    Returns ``(hi_exp - lo_exp) * per_decade + 1`` ascending boundaries
    spanning ``10**lo_exp`` .. ``10**hi_exp`` inclusive.  The default
    covers 1 microsecond to 100 seconds at 4 buckets per decade.
    """
    if hi_exp <= lo_exp or per_decade < 1:
        raise ValueError("need hi_exp > lo_exp and per_decade >= 1")
    steps = (hi_exp - lo_exp) * per_decade
    return tuple(10.0 ** (lo_exp + k / per_decade) for k in range(steps + 1))


class Counter:
    """A named monotonically growing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def inc(self, delta: int | float = 1) -> None:
        self.value += delta


class Gauge:
    """A named last-value sample."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram; bucket ``i`` counts values in
    ``[boundaries[i-1], boundaries[i])`` with an underflow bucket below
    the first boundary and an overflow bucket at and above the last."""

    __slots__ = ("name", "boundaries", "counts", "count", "total")

    def __init__(self, name: str, boundaries: tuple[float, ...] | None = None):
        self.name = name
        self.boundaries = (
            boundaries if boundaries is not None else log_bucket_boundaries()
        )
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("histogram boundaries must be ascending")
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    def bucket_for(self, value: float) -> int:
        """Index of the bucket a value lands in (tests and readers)."""
        return bisect_right(self.boundaries, value)


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
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, Series] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, boundaries: tuple[float, ...] | None = None
    ) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, boundaries)
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
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                }
                for name, h in sorted(self.histograms.items())
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
