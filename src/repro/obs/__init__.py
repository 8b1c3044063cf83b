"""``repro.obs``: tracing and profiling for the campaign stack.

Every layer below this one -- scheduler, execution backends, the
search engines, the fuzz loop -- answers "what happened"
through this package:

- **Tracing** (:mod:`repro.obs.recorder`): ``span()`` / ``event()`` /
  ``count()`` record onto a process-wide recorder.  Off by default: with
  no recorder installed every call is one ``is None`` branch (spans
  return a shared no-op context manager), and *nothing* reads a clock.
  Pool workers record onto their own scoped recorder (the process
  backend passes each shard a tracing flag) and ship the finished
  batch home in a :class:`~repro.obs.recorder.TracedOutcome` wrapper;
  the coordinator merges the batches into one trace.
- **Clock** (:mod:`repro.obs.clock`): the one sanctioned place the
  package reads monotonic time.  The determinism lint flags direct
  clock reads anywhere else.
- **Sinks** (:mod:`repro.obs.sinks`): an in-memory recorder *is* the
  collector; finished traces export to JSONL (interleavable with the
  campaign result log -- record ``type`` values are disjoint) and to
  Chrome ``trace_event`` JSON loadable in Perfetto.
- **Report** (:mod:`repro.obs.report`, also ``python -m
  repro.obs.report``): per-worker timeline, span-tree time breakdown,
  top-N hottest units, merged trace counters.

A campaign's own counters (backend, capacity, shards submitted) live
in one place, :class:`repro.campaign.scheduler.CampaignTelemetry`;
everything finer-grained is a trace event.

The tracing layer never touches verdict or merge paths: the bit-identity
contract extends to "tracing on vs off is bit-identical", and the test
suite enforces it on both backends.
"""

from __future__ import annotations

from repro.obs import clock
from repro.obs.recorder import (
    EventRecord,
    Recorder,
    SpanBatch,
    SpanRecord,
    TracedOutcome,
    count,
    enabled,
    event,
    install,
    recorder,
    span,
    tracing,
)

__all__ = [
    "EventRecord",
    "Recorder",
    "SpanBatch",
    "SpanRecord",
    "TracedOutcome",
    "clock",
    "count",
    "enabled",
    "event",
    "install",
    "recorder",
    "span",
    "tracing",
]
