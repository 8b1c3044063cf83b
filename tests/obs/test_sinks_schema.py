"""Trace sinks and schema: JSONL roundtrip, interleaving, Chrome export.

The export contract: a finished recorder renders to JSONL that (a)
validates against :mod:`repro.obs.schema`, (b) coexists line-for-line
with a campaign result log -- each reader skips the other's records --
and (c) re-renders as a Chrome ``trace_event`` document whose spans and
instants land on the right named threads with microsecond timestamps.
"""

from __future__ import annotations

import json

from repro.campaign.log import read_records, result_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.report import format_report, main as report_main
from repro.obs.schema import validate_file, validate_trace
from repro.obs.sinks import chrome_trace, read_trace, write_chrome, write_jsonl


def _sample_recorder() -> Recorder:
    rec = Recorder("main")
    with rec.span("campaign", experiment="mini"):
        with rec.span("unit"):
            rec.event("unit.done", unit="shadow/insecure", kind="attack",
                      elapsed=0.25)
    worker = Recorder("pid7")
    with worker.span("engine.search", engine="vector"):
        pass
    worker.count("engine.states", 11)
    rec.absorb(worker.batch())
    return rec


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("campaign.shards").inc(2)
    registry.histogram("campaign.grain_error").observe(0.9)
    registry.time_series("campaign.states_per_s").add(0.1, 500.0)
    return registry


# ----------------------------------------------------------------------
# JSONL roundtrip + validation
# ----------------------------------------------------------------------
def test_jsonl_roundtrip_validates(tmp_path):
    path = tmp_path / "trace.jsonl"
    written = write_jsonl(_sample_recorder(), path, registry=_sample_registry())
    records = read_trace(path)
    assert len(records) == written
    assert records[0]["type"] == "trace-header"
    assert records[0]["spans"] == 3
    assert validate_trace(records) == []
    assert validate_file(path) == []
    types = {r["type"] for r in records}
    assert types == {"trace-header", "span", "event", "counters", "metrics"}


def test_worker_spans_survive_the_export(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(_sample_recorder(), path)
    records = read_trace(path)
    assert validate_trace(records, require_worker_spans=True) == []
    workers = {r["worker"] for r in records if r["type"] == "span"}
    assert workers == {"main", "pid7"}


def test_spans_stream_in_timeline_order(tmp_path):
    rec = Recorder("main")
    rec.add_span("late", 5.0, 6.0)
    rec.add_span("early", 1.0, 2.0)
    path = tmp_path / "trace.jsonl"
    write_jsonl(rec, path)
    names = [r["name"] for r in read_trace(path) if r["type"] == "span"]
    assert names == ["early", "late"]


# ----------------------------------------------------------------------
# Interleaving with the campaign result log
# ----------------------------------------------------------------------
def test_trace_and_campaign_log_share_a_file(tmp_path):
    path = tmp_path / "combined.jsonl"
    # A campaign log prefix, as CampaignLog writes it.
    log_lines = [
        {"type": "campaign", "version": 1, "experiment": "mini",
         "n_workers": 1, "n_units": 1},
        {"type": "result", "experiment": "mini", "key": ["a"],
         "outcome": {"kind": "proved"}},
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for record in log_lines:
            handle.write(json.dumps(record) + "\n")
    # ...then the trace appended to the same file.
    trace_path = tmp_path / "trace.jsonl"
    write_jsonl(_sample_recorder(), trace_path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(trace_path.read_text())
    # The trace reader sees only trace records...
    trace = read_trace(path)
    assert all(r["type"] != "result" for r in trace)
    assert validate_trace(trace) == []
    # ...the schema tolerates the foreign lines in the raw file...
    assert validate_file(path) == []
    # ...and the campaign-log reader still finds exactly its results.
    results = result_records(read_records(str(path)))
    assert [r["key"] for r in results] == [["a"]]


# ----------------------------------------------------------------------
# Schema negatives
# ----------------------------------------------------------------------
def _header(**overrides):
    record = {"type": "trace-header", "version": 1, "worker": "main",
              "spans": 0, "events": 0}
    record.update(overrides)
    return record


def _span(**overrides):
    record = {"type": "span", "name": "s", "t0": 0.0, "t1": 1.0, "id": 1,
              "parent": None, "worker": "main", "attrs": {}}
    record.update(overrides)
    return record


def test_schema_requires_exactly_one_header():
    assert validate_trace([_span()])
    assert validate_trace([_header(), _header(), _span()])
    assert validate_trace([_header(), _span()]) == []


def test_schema_flags_time_reversal_and_duplicate_ids():
    errors = validate_trace([
        _header(),
        _span(id=1),
        _span(id=1, t0=2.0, t1=1.0),
    ])
    assert any("duplicate span id" in e for e in errors)
    assert any("t1 < t0" in e for e in errors)


def test_schema_flags_unresolvable_parents_and_unknown_types():
    errors = validate_trace([
        _header(),
        _span(parent=99),
        {"type": "mystery"},
    ])
    assert any("unknown parent 99" in e for e in errors)
    assert any("unknown record type" in e for e in errors)


def test_schema_flags_missing_and_mistyped_fields():
    errors = validate_trace([
        _header(version="1"),
        _span(name=7),
        {"type": "span", "name": "s"},
    ])
    assert any("field 'version'" in e for e in errors)
    assert any("field 'name'" in e for e in errors)
    assert any("missing field" in e for e in errors)


def test_require_worker_spans_demands_offloaded_work():
    coordinator_only = [_header(), _span()]
    errors = validate_trace(coordinator_only, require_worker_spans=True)
    assert any("no worker-side spans" in e for e in errors)
    merged = [_header(), _span(), _span(id=2, worker="pid7")]
    assert validate_trace(merged, require_worker_spans=True) == []


# ----------------------------------------------------------------------
# Chrome export
# ----------------------------------------------------------------------
def test_chrome_trace_names_threads_and_scales_to_microseconds(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(_sample_recorder(), path)
    document = chrome_trace(read_trace(path))
    events = document["traceEvents"]
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {"main", "pid7"}
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {
        "campaign", "unit", "engine.search",
    }
    for entry in complete:
        assert entry["dur"] >= 0
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["unit.done"]
    # Microseconds: the unit span started after the campaign span did.
    spans = {e["name"]: e for e in complete}
    assert spans["unit"]["ts"] >= spans["campaign"]["ts"]
    out = tmp_path / "chrome.json"
    assert write_chrome(read_trace(path), out) == len(events)
    json.loads(out.read_text())  # well-formed document


# ----------------------------------------------------------------------
# The report renderer
# ----------------------------------------------------------------------
def test_report_sections_render(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(_sample_recorder(), path, registry=_sample_registry())
    text = format_report(read_trace(path))
    assert "timeline" in text
    assert "span tree" in text
    assert "hottest units" in text
    assert "shadow/insecure" in text
    assert "engine.states" in text  # merged worker counters


def test_report_cli_smoke(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    write_jsonl(_sample_recorder(), path)
    chrome = tmp_path / "chrome.json"
    assert report_main([str(path), "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "timeline" in out
    assert chrome.exists()


def test_report_cli_rejects_traceless_files(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert report_main([str(path)]) == 1
