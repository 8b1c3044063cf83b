"""Structured tracing: spans, events, counters, and their wire batches.

The recorder is the in-memory collector.  One process has at most one
*installed* recorder (:func:`install` / :func:`tracing`); the module
functions :func:`span`, :func:`event` and :func:`count` are the
instrumentation points the rest of the package calls.  With no recorder
installed each is a single ``is None`` branch -- no clock read, no
allocation beyond a shared no-op context manager -- which is what makes
always-on instrumentation affordable on the engines' hot paths.

Worker processes record onto their own scoped recorder (installed by
``repro.campaign.executor.execute_item`` when the dispatching
campaign is tracing) and return the finished :class:`SpanBatch`
alongside the outcome (:class:`TracedOutcome`).
The coordinator merges batches via :meth:`Recorder.absorb`, which
remaps span ids: ids are process-local counters, so two workers'
batches collide; absorption renumbers into the coordinator's id space
(a parent recorded outside the batch becomes a root).  Timestamps merge
as recorded -- pool children read the same host monotonic clock -- and
each span keeps its worker's label (``pid<N>``), so the per-worker
timeline groups by pool child.

Every record type here is a frozen slotted dataclass of plain data --
picklable; shadowlint's wire-safety checker walks them (``WIRE_ROOTS``)
because :class:`TracedOutcome` carries a :class:`SpanBatch` back from
every traced pool shard.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs import clock


def _attrs(mapping: dict) -> tuple:
    """Normalize span/event attributes to a sorted, hashable tuple."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span on some worker's monotonic timeline."""

    name: str
    t0: float
    t1: float
    span_id: int
    parent_id: int | None
    worker: str
    attrs: tuple = ()

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One instantaneous event, attached to the enclosing span if any."""

    name: str
    t: float
    span_id: int | None
    worker: str
    attrs: tuple = ()


@dataclass(frozen=True, slots=True)
class SpanBatch:
    """A worker's finished records, ready to cross a process boundary."""

    worker: str
    spans: tuple = ()
    events: tuple = ()
    counters: tuple = ()


@dataclass(frozen=True, slots=True)
class TracedOutcome:
    """A shard outcome piggybacking the spans its execution recorded.

    The executor's pool path gets worker spans back through the future's
    return value wrapped in this; it unwraps *before* any outcome inspection
    so tracing never touches result paths.
    """

    outcome: Any
    batch: SpanBatch


class _NoopSpan:
    """The shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        """Discard attributes (tracing is off)."""


_NOOP = _NoopSpan()


class _Span:
    """An open span; finishing appends an immutable :class:`SpanRecord`."""

    __slots__ = ("_recorder", "name", "attrs", "span_id", "parent_id", "t0")

    def __init__(self, recorder: "Recorder", name: str, attrs: tuple):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (an outcome's verdict,
        a state count); merged into the record when the span closes."""
        merged = dict(self.attrs)
        merged.update(attrs)
        self.attrs = _attrs(merged)

    def __enter__(self):
        rec = self._recorder
        self.span_id = rec._next_id
        rec._next_id += 1
        self.parent_id = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.span_id)
        self.t0 = clock.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = clock.monotonic()
        rec = self._recorder
        rec._stack.pop()
        rec.spans.append(
            SpanRecord(
                self.name, self.t0, t1, self.span_id, self.parent_id,
                rec.worker, self.attrs,
            )
        )
        return False


class Recorder:
    """The in-memory trace collector for one process (or one shard)."""

    def __init__(self, worker: str = "main"):
        self.worker = worker
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.counters: dict[str, int | float] = {}
        self._stack: list[int] = []
        self._next_id = 1

    def span(self, name: str, **attrs) -> _Span:
        """Open a span; use as a context manager."""
        return _Span(self, name, _attrs(attrs))

    def add_span(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Record an already-timed span (the engines' strided wave spans).

        The caller owns the clock reads, so hot loops can hoist them
        behind their own ``recorder is not None`` branch.
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            SpanRecord(name, t0, t1, span_id, parent, self.worker, _attrs(attrs))
        )

    def event(self, name: str, **attrs) -> None:
        self.events.append(
            EventRecord(
                name, clock.monotonic(),
                self._stack[-1] if self._stack else None,
                self.worker, _attrs(attrs),
            )
        )

    def count(self, name: str, delta: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def batch(self) -> SpanBatch:
        """Freeze everything recorded so far into a picklable batch."""
        return SpanBatch(
            worker=self.worker,
            spans=tuple(self.spans),
            events=tuple(self.events),
            counters=tuple(sorted(self.counters.items())),
        )

    def absorb(self, batch: SpanBatch) -> None:
        """Merge a worker batch, remapping its span ids into this one's."""
        id_map: dict[int, int] = {}
        for span in batch.spans:
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        for span in batch.spans:
            self.spans.append(
                SpanRecord(
                    span.name,
                    span.t0,
                    span.t1,
                    id_map[span.span_id],
                    id_map.get(span.parent_id),
                    span.worker,
                    span.attrs,
                )
            )
        for event in batch.events:
            self.events.append(
                EventRecord(
                    event.name,
                    event.t,
                    id_map.get(event.span_id),
                    event.worker,
                    event.attrs,
                )
            )
        for name, value in batch.counters:
            self.counters[name] = self.counters.get(name, 0) + value


#: The process-wide recorder; ``None`` means tracing is off.
_RECORDER: Recorder | None = None


def span(name: str, **attrs):
    """Open a span on the installed recorder; no-op when tracing is off."""
    rec = _RECORDER
    if rec is None:
        return _NOOP
    return rec.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record an instantaneous event; no-op when tracing is off."""
    rec = _RECORDER
    if rec is not None:
        rec.event(name, **attrs)


def count(name: str, delta: int | float = 1) -> None:
    """Bump a trace counter; no-op when tracing is off."""
    rec = _RECORDER
    if rec is not None:
        rec.count(name, delta)


def enabled() -> bool:
    """Whether a recorder is installed in this process."""
    return _RECORDER is not None


def recorder() -> Recorder | None:
    """The installed recorder, or ``None`` when tracing is off.

    Hot loops hoist this once and branch on ``is not None`` per
    iteration -- the near-zero-cost contract.
    """
    return _RECORDER


def install(rec: Recorder | None) -> Recorder | None:
    """Install (or, with ``None``, remove) the process recorder.

    Returns the previous recorder so scoped installers can restore it.
    """
    global _RECORDER
    previous = _RECORDER
    _RECORDER = rec
    return previous


@contextmanager
def tracing(worker: str = "main"):
    """Install a fresh recorder for the block; yields it for export."""
    rec = Recorder(worker)
    previous = install(rec)
    try:
        yield rec
    finally:
        install(previous)
