"""Tracing on vs off is bit-identical -- the observability prime directive.

The recorder must never touch verdict or merge paths: a traced campaign
produces the same verdicts, the same :class:`SearchStats`, the same
counterexamples and the same canonical JSONL log as an untraced one, at
every worker count.  The matrix here runs the fig2-mini grid at one
worker (inline) and two (a process pool) and the fuzz-mini preset at one
worker, each against its untraced twin and the grid also against plain
``verify`` on every unit -- and asserts the traced runs actually
recorded what they promise (engine spans, merged worker batches,
populated telemetry).
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
from repro.core.verifier import verify
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


def _run_grid(n_workers: int, *, traced: bool):
    handle = io.StringIO()
    units = _units()
    if traced:
        with obs.tracing() as recorder:
            results = run_campaign(
                units, n_workers=n_workers, log=CampaignLog(handle)
            )
        return results, _canonical(handle), recorder
    results = run_campaign(units, n_workers=n_workers, log=CampaignLog(handle))
    return results, _canonical(handle), None


def _assert_identical(baseline, candidate, label):
    """Both runs equal ``verify`` on every unit; their logs agree."""
    base_results, base_lines, _ = baseline
    cand_results, cand_lines, _ = candidate
    for unit, base, cand in zip(
        _units(), base_results, cand_results, strict=True
    ):
        reference = verify(unit.task)
        for result in (base, cand):
            assert result.key == unit.key, label
            assert result.outcome.kind == reference.kind, (label, unit.key)
            assert result.outcome.stats == reference.stats, (label, unit.key)
            assert (
                result.outcome.counterexample == reference.counterexample
            ), (label, unit.key)
    assert cand_lines == base_lines, label


# ----------------------------------------------------------------------
# Verification campaigns
# ----------------------------------------------------------------------
def test_serial_trace_is_bit_identical_and_records_engine_spans():
    baseline = _run_grid(1, traced=False)
    traced = _run_grid(1, traced=True)
    _assert_identical(baseline, traced, "serial")
    recorder = traced[2]
    names = {span.name for span in recorder.spans}
    # One worker runs the same sharded path inline: shard spans.
    assert {"campaign", "shard.run", "engine.search"} <= names
    assert "unit.done" in {event.name for event in recorder.events}
    assert recorder.counters.get("engine.states", 0) > 0
    # The scheduler counted every submitted shard into telemetry.
    assert scheduler.LAST_TELEMETRY.shards >= len(_units())


def test_process_trace_is_bit_identical_and_merges_pool_batches():
    baseline = _run_grid(1, traced=False)
    traced = _run_grid(2, traced=True)
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
    return preset, run_fuzz(
        preset.config,
        n_batches=preset.n_batches,
        batch_size=preset.batch_size,
        max_rounds=preset.max_rounds,
    )


def test_fuzz_trace_is_bit_identical_and_fills_telemetry():
    baseline = _fuzz_fingerprint(_run_fuzz_mini()[1])
    with obs.tracing() as recorder:
        preset, traced_report = _run_fuzz_mini()
    assert _fuzz_fingerprint(traced_report) == baseline
    names = {span.name for span in recorder.spans}
    assert "fuzz.round" in names
    events = {event.name for event in recorder.events}
    assert {"shard.submit", "fuzz.round.done"} <= events
    # Fuzz campaigns count their own shards: one per batch per round run.
    telemetry = scheduler.LAST_TELEMETRY
    assert telemetry.backend == "serial"
    assert telemetry.shards == preset.n_batches * len(traced_report.rounds)
