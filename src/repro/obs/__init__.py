"""``repro.obs``: tracing, metrics and profiling for the campaign stack.

Every layer below this one -- scheduler, execution backends, the
search engines, the fuzz loop -- answers "what happened"
through this package:

- **Tracing** (:mod:`repro.obs.recorder`): ``span()`` / ``event()`` /
  ``count()`` record onto a process-wide recorder.  Off by default: with
  no recorder installed every call is one ``is None`` branch (spans
  return a shared no-op context manager), and *nothing* reads a clock.
  Pool workers record onto their own scoped recorder and ship the
  finished batch home in a :class:`~repro.obs.recorder.TracedOutcome`
  wrapper; the coordinator merges the batches into one trace.
- **Clock** (:mod:`repro.obs.clock`): the one sanctioned place the
  package reads wall/monotonic time, injectable for tests.  The
  determinism lint flags direct clock reads anywhere else.
- **Metrics** (:mod:`repro.obs.metrics`): counters, gauges, log-bucket
  histograms and time series in a per-campaign registry that supersedes
  ``CampaignTelemetry`` (the old dataclass is filled from the registry
  as a compatibility shim).
- **Sinks** (:mod:`repro.obs.sinks`): an in-memory recorder *is* the
  collector; finished traces export to JSONL (interleavable with the
  campaign result log -- record ``type`` values are disjoint) and to
  Chrome ``trace_event`` JSON loadable in Perfetto.
- **Report** (:mod:`repro.obs.report`, also ``python -m
  repro.obs.report``): per-worker timeline, span-tree time breakdown,
  top-N hottest units, metric-histogram summaries.
- **Live status** (:mod:`repro.obs.live`, viewer ``python -m
  repro.obs.watch``): a running campaign periodically folds scheduler
  progress and the metrics registry into frozen
  :class:`~repro.obs.live.ProgressSnapshot` records, surfaced
  in-process and as an atomically-rewritten ``--status-json`` file.
- **Run history** (:mod:`repro.obs.history`, also ``python -m
  repro.obs.history``): an append-only JSONL ledger of finished runs
  (config fingerprint, verdicts, wall time, throughput) with
  ``diff``/``regressions`` gating built on
  :mod:`repro.bench.perf_gate`'s tolerance machinery.

The tracing layer never touches verdict or merge paths: the bit-identity
contract extends to "tracing on vs off is bit-identical", and the test
suite enforces it on both backends.
"""

from __future__ import annotations

from repro.obs import clock, live, metrics
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
    "live",
    "metrics",
    "recorder",
    "span",
    "tracing",
]
