"""Fuzz campaigns over the campaign executor: determinism and integration.

The merge contract under test: a fuzz report is a pure function of the
campaign seed -- same leak, same coverage, same round accounting at
every worker count.  Plus the WorkItem integration surface:
fuzz payloads ride the same pickles, deadlines and CLI as
verification shards.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.backends import SerialBackend, WorkItem
from repro.campaign.log import canonical_lines
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import FUZZ_PRESETS, preset_config
from repro.fuzz.work import FuzzShard, FuzzShardResult
from repro.mc.explorer import SearchLimits


def _report_fingerprint(report):
    """Everything deterministic about a report, in comparable form."""
    return (
        [
            (r.index, r.programs, r.cycles, sorted(r.verdicts.items()),
             r.new_coverage, r.leaks)
            for r in report.rounds
        ],
        report.coverage.sorted_keys(),
        report.corpus_size,
        None if report.leak is None else (
            report.leak.order,
            report.leak.program,
            report.leak.counterexample,
        ),
        None if report.minimized is None else (
            report.minimized.program,
            report.minimized.counterexample,
            report.minimized.probes,
        ),
    )


def _run(preset, **kwargs):
    return run_fuzz(
        preset.config,
        n_batches=preset.n_batches,
        batch_size=preset.batch_size,
        max_rounds=preset.max_rounds,
        **kwargs,
    )


def test_serial_and_process_reports_are_bit_identical():
    preset = preset_config("fuzz-mini")
    serial = _run(preset)
    parallel = _run(preset, n_workers=4)
    assert serial.found_leak
    assert _report_fingerprint(serial) == _report_fingerprint(parallel)


def test_defended_preset_stays_clean():
    preset = preset_config("fuzz-defended")
    report = _run(preset)
    assert not report.found_leak
    assert report.minimized is None
    assert preset.expectation_met(report.found_leak)
    # The control burned its full budget looking.
    assert report.programs == (
        preset.n_batches * preset.batch_size * preset.max_rounds
    )


def test_coverage_feedback_builds_a_corpus():
    preset = preset_config("fuzz-defended")  # runs full rounds
    report = _run(preset)
    assert len(report.coverage) > 0
    assert report.corpus_size > 0


def test_seed_changes_the_campaign():
    base = preset_config("fuzz-defended")
    other = preset_config("fuzz-defended", seed=1)
    first = _run(base)
    second = _run(other)
    assert first.coverage.sorted_keys() != second.coverage.sorted_keys() or (
        [r.verdicts for r in first.rounds]
        != [r.verdicts for r in second.rounds]
    )


# ----------------------------------------------------------------------
# WorkItem integration
# ----------------------------------------------------------------------
def _mini_shard(**overrides) -> FuzzShard:
    preset = preset_config("fuzz-mini")
    base = dict(
        config=preset.config,
        round_index=0,
        batch_index=0,
        n_programs=8,
        stop_on_leak=False,
    )
    base.update(overrides)
    return FuzzShard(**base)


def test_fuzz_workitems_run_through_the_backend_contract():
    backend = SerialBackend()
    ticket = backend.submit_unit(WorkItem(fuzz=_mini_shard()))
    [(done, result)] = list(backend.as_completed())
    assert done == ticket
    assert isinstance(result, FuzzShardResult)
    assert result.programs == 8


def test_expired_deadline_synthesizes_a_budget_outcome():
    from repro.campaign.backends import BUDGET_NOTE

    shard = _mini_shard(
        limits=SearchLimits(deadline=time.monotonic() - 1.0)
    )
    outcome = WorkItem(fuzz=shard).run()
    assert outcome.timed_out
    assert outcome.note == BUDGET_NOTE


def test_deadline_truncates_a_running_shard():
    shard = _mini_shard(
        n_programs=10_000,
        limits=SearchLimits(deadline=time.monotonic() + 0.05),
    )
    result = shard.run()
    assert result.truncated == "deadline"
    assert result.programs < 10_000


def test_budget_zero_reports_truncated_rounds():
    preset = preset_config("fuzz-defended")
    report = _run(preset, budget_s=0.0)
    assert report.programs == 0
    assert all(r.truncated for r in report.rounds) or not report.rounds


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------
def test_fuzz_cli_logs_are_backend_independent(tmp_path):
    from repro.fuzz.__main__ import main as fuzz_main

    serial_log = tmp_path / "serial.jsonl"
    process_log = tmp_path / "process.jsonl"
    assert fuzz_main(["--units", "fuzz-mini", "--log", str(serial_log)]) == 0
    assert (
        fuzz_main(
            [
                "--units", "fuzz-mini", "--workers", "2",
                "--log", str(process_log),
            ]
        )
        == 0
    )
    serial_lines = canonical_lines(str(serial_log))
    assert serial_lines
    assert serial_lines == canonical_lines(str(process_log))
    # The final record is the minimized leak, replay-complete.
    assert '"key": ["leak"]' in serial_lines[-1]
    assert '"minimized_length": 3' in serial_lines[-1]


def test_campaign_cli_delegates_fuzz_presets(tmp_path, capsys):
    from repro.campaign.__main__ import main as campaign_main

    log = tmp_path / "fuzz.jsonl"
    assert campaign_main(["--units", "fuzz-mini", "--log", str(log)]) == 0
    assert canonical_lines(str(log))
    assert "LEAK" in capsys.readouterr().out


def test_fuzz_cli_log_header_records_the_resolved_capacity(tmp_path, monkeypatch):
    """``--workers 0`` is one worker per CPU, and the log header says so."""
    import os

    from repro.campaign import scheduler
    from repro.campaign.log import read_records
    from repro.fuzz.__main__ import main as fuzz_main

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    log = tmp_path / "fuzz.jsonl"
    fuzz_main(
        [
            "--units", "fuzz-mini", "--workers", "0", "--rounds", "1",
            "--no-minimize", "--log", str(log),
        ]
    )
    header = read_records(str(log))[0]
    assert header["type"] == "campaign"
    assert header["n_workers"] == 2
    assert scheduler.LAST_TELEMETRY.backend == "process"


@pytest.mark.parametrize("name", FUZZ_PRESETS)
def test_presets_build(name):
    preset = preset_config(name)
    assert preset.config.build_roots()
    assert preset.config.build_product() is not None
