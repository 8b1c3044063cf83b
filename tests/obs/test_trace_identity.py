"""Tracing on vs off is bit-identical -- the observability prime directive.

The recorder must never touch verdict or merge paths: a traced campaign
produces the same verdicts, the same :class:`SearchStats`, the same
counterexamples and the same canonical JSONL log as an untraced one, on
every backend.  The matrix here runs the fig2-mini grid through serial
and process and the fuzz-mini preset through serial, each against its
untraced twin -- and asserts the traced runs actually recorded what
they promise (engine spans, merged worker batches, populated
telemetry).
"""

from __future__ import annotations

import io

import pytest

from repro import obs
from repro.bench import fig2
from repro.bench.configs import QUICK
from repro.campaign import scheduler
from repro.campaign.log import CampaignLog
from repro.campaign.scheduler import run_campaign
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import preset_config


def _units():
    return fig2.units(QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2,))


@pytest.fixture(autouse=True)
def _tracing_off():
    """No recorder leaks across tests, whatever a test body does."""
    previous = obs.install(None)
    yield
    obs.install(previous)


def _canonical(handle: io.StringIO) -> list[str]:
    """Result lines minus the timing field (see ``log.canonical_lines``)."""
    import json

    lines = []
    for line in handle.getvalue().splitlines():
        record = json.loads(line)
        if record.get("type") != "result":
            continue
        record["outcome"].pop("elapsed", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def _run_grid(backend, *, traced: bool, n_workers=1, **kwargs):
    handle = io.StringIO()
    units = _units()
    if traced:
        with obs.tracing() as recorder:
            results = run_campaign(
                units, n_workers=n_workers, backend=backend,
                log=CampaignLog(handle), **kwargs,
            )
        return results, _canonical(handle), recorder
    results = run_campaign(
        units, n_workers=n_workers, backend=backend,
        log=CampaignLog(handle), **kwargs,
    )
    return results, _canonical(handle), None


def _assert_identical(baseline, candidate, label):
    base_results, base_lines, _ = baseline
    cand_results, cand_lines, _ = candidate
    assert [r.key for r in cand_results] == [r.key for r in base_results]
    for base, cand in zip(base_results, cand_results):
        assert cand.outcome.kind == base.outcome.kind, (label, base.key)
        assert cand.outcome.stats == base.outcome.stats, (label, base.key)
        assert (
            cand.outcome.counterexample == base.outcome.counterexample
        ), (label, base.key)
    assert cand_lines == base_lines, label


# ----------------------------------------------------------------------
# Verification campaigns
# ----------------------------------------------------------------------
def test_serial_trace_is_bit_identical_and_records_engine_spans():
    baseline = _run_grid("serial", traced=False)
    traced = _run_grid("serial", traced=True)
    _assert_identical(baseline, traced, "serial")
    recorder = traced[2]
    names = {span.name for span in recorder.spans}
    # An explicit backend routes through the sharded path: shard spans,
    # not per-unit spans (those belong to the historical serial path).
    assert {"campaign", "shard.run", "engine.search"} <= names
    assert "unit.done" in {event.name for event in recorder.events}
    assert recorder.counters.get("engine.states", 0) > 0
    # Tracing fed the metrics registry too; the shim filled telemetry.
    assert scheduler.LAST_TELEMETRY.shards >= len(_units())


def test_process_trace_is_bit_identical_and_merges_pool_batches():
    baseline = _run_grid("serial", traced=False)
    traced = _run_grid("process", traced=True, n_workers=2)
    _assert_identical(baseline, traced, "process")
    recorder = traced[2]
    # Engine spans came home in TracedOutcome batches from pool children.
    searches = [s for s in recorder.spans if s.name == "engine.search"]
    assert searches
    assert any(span.worker != recorder.worker for span in searches)


# ----------------------------------------------------------------------
# Fuzz campaigns
# ----------------------------------------------------------------------
def _fuzz_fingerprint(report):
    return (
        [
            (r.index, r.programs, r.cycles, sorted(r.verdicts.items()),
             r.new_coverage, r.leaks)
            for r in report.rounds
        ],
        report.coverage.sorted_keys(),
        report.corpus_size,
        None if report.leak is None else (
            report.leak.order, report.leak.program,
            report.leak.counterexample,
        ),
        None if report.minimized is None else (
            report.minimized.program, report.minimized.counterexample,
        ),
    )


def _run_fuzz_mini():
    preset = preset_config("fuzz-mini", None)
    return run_fuzz(
        preset.config,
        n_batches=preset.n_batches,
        batch_size=preset.batch_size,
        max_rounds=preset.max_rounds,
        backend="serial",
    )


def test_fuzz_trace_is_bit_identical_and_fills_telemetry():
    baseline = _fuzz_fingerprint(_run_fuzz_mini())
    with obs.tracing() as recorder:
        traced_report = _run_fuzz_mini()
    assert _fuzz_fingerprint(traced_report) == baseline
    names = {span.name for span in recorder.spans}
    assert "fuzz.round" in names
    events = {event.name for event in recorder.events}
    assert {"shard.submit", "fuzz.round.done"} <= events
    # The satellite fix: fuzz campaigns populate LAST_TELEMETRY now.
    telemetry = scheduler.LAST_TELEMETRY
    assert telemetry is not None
    assert telemetry.shards > 0
