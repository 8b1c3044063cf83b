"""Trace sinks: JSONL files and Chrome ``trace_event`` JSON.

The in-memory collector is the :class:`repro.obs.recorder.Recorder`
itself; this module renders a finished recorder into

- **JSONL** (:func:`write_jsonl` / :func:`read_trace`): one JSON object
  per line, discriminated by ``"type"`` -- ``trace-header``, ``span``,
  ``event``, ``counters``.  The type values are disjoint
  from the campaign result log's (``campaign`` / ``result``), so a trace
  can be interleaved into -- or concatenated with -- a ``CampaignLog``
  file and each reader simply skips the other's records.
- **Chrome trace JSON** (:func:`chrome_trace` / :func:`write_chrome`):
  the ``trace_event`` format ``chrome://tracing`` and Perfetto load.
  Workers map to threads of one process (named via ``thread_name``
  metadata events), spans to complete (``"X"``) events, trace events to
  instants; timestamps are microseconds on the merged monotonic
  timeline.

Schema validation for the JSONL shape lives in
:mod:`repro.obs.schema` (``python -m repro.obs.schema``), next to the
BENCH record schema.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.recorder import Recorder

#: Record discriminators this package owns.  Disjoint from the campaign
#: log's ``{"campaign", "result"}`` on purpose (interleavability).
TRACE_TYPES = frozenset({"trace-header", "span", "event", "counters"})

#: Format version stamped into the trace header.
TRACE_VERSION = 1


def trace_records(recorder: Recorder):
    """Yield the JSON-safe records of a finished recorder, header first.

    Spans sort by start time (id as tiebreak) so the file reads as a
    timeline regardless of completion order.
    """
    yield {
        "type": "trace-header",
        "version": TRACE_VERSION,
        "worker": recorder.worker,
        "spans": len(recorder.spans),
        "events": len(recorder.events),
    }
    for span in sorted(recorder.spans, key=lambda s: (s.t0, s.span_id)):
        yield {
            "type": "span",
            "name": span.name,
            "t0": span.t0,
            "t1": span.t1,
            "id": span.span_id,
            "parent": span.parent_id,
            "worker": span.worker,
            "attrs": dict(span.attrs),
        }
    for event in sorted(recorder.events, key=lambda e: e.t):
        yield {
            "type": "event",
            "name": event.name,
            "t": event.t,
            "span": event.span_id,
            "worker": event.worker,
            "attrs": dict(event.attrs),
        }
    if recorder.counters:
        yield {
            "type": "counters",
            "values": dict(sorted(recorder.counters.items())),
        }


def write_jsonl(recorder: Recorder, path: str | Path) -> int:
    """Write the trace as JSONL; returns the number of records."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace_records(recorder):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            written += 1
    return written


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace, skipping any interleaved campaign-log records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and record.get("type") in TRACE_TYPES:
                records.append(record)
    return records


def chrome_trace(records: list[dict]) -> dict:
    """Render parsed trace records as a Chrome ``trace_event`` document."""
    tids: dict[str, int] = {}
    events: list[dict] = []

    def tid(worker: str) -> int:
        known = tids.get(worker)
        if known is None:
            known = tids[worker] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": known,
                    "args": {"name": worker},
                }
            )
        return known

    for record in records:
        kind = record.get("type")
        if kind == "span":
            events.append(
                {
                    "ph": "X",
                    "cat": "repro",
                    "name": record["name"],
                    "ts": record["t0"] * 1e6,
                    "dur": (record["t1"] - record["t0"]) * 1e6,
                    "pid": 1,
                    "tid": tid(record["worker"]),
                    "args": record.get("attrs", {}),
                }
            )
        elif kind == "event":
            events.append(
                {
                    "ph": "i",
                    "cat": "repro",
                    "name": record["name"],
                    "ts": record["t"] * 1e6,
                    "pid": 1,
                    "tid": tid(record["worker"]),
                    "s": "t",
                    "args": record.get("attrs", {}),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(records: list[dict], path: str | Path) -> int:
    """Write parsed trace records as Chrome trace JSON; returns the
    number of trace events emitted."""
    document = chrome_trace(records)
    Path(path).write_text(json.dumps(document, sort_keys=True))
    return len(document["traceEvents"])
