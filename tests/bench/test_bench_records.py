"""BENCH_*.json schema validation and the perf-regression gate.

Tier-1 coverage for the CI perf lane: the committed record files must
validate, the validator must actually catch the failure shapes it exists
for (at write time in the benchmark suites, and in the gate itself), and
the gate must fail on regressions and on malformed files, tolerate
noise, and fall back to throughput-only gating on oversubscribed
(single-core) runners.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import perf_gate
from repro.obs import schema

REPO_ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def test_committed_bench_files_validate():
    for name in schema.DEFAULT_FILES:
        problems = schema.validate_file(REPO_ROOT / name)
        assert problems == [], problems


def _campaign_record() -> dict:
    return {
        "experiment": "table2-grid",
        "scale": "quick",
        "cpu_count": 1,
        "n_workers": 4,
        "oversubscribed": True,
        "n_units": 10,
        "n_shards": 72,
        "serial_s": 6.0,
        "parallel_s": 24.0,
        "speedup": 0.25,
        "cells": {"shadow/Sodor": "proved"},
    }


def test_validator_accepts_a_well_formed_record():
    assert schema.validate_record("r", _campaign_record()) == []


def test_validator_flags_missing_and_mistyped_fields():
    record = _campaign_record()
    del record["n_shards"]
    record["serial_s"] = "fast"
    problems = schema.validate_record("r", record)
    assert any("n_shards" in p for p in problems)
    assert any("serial_s" in p for p in problems)


def test_validator_flags_inconsistent_speedup():
    record = _campaign_record()
    record["speedup"] = 2.0  # serial_s/parallel_s says 0.25
    problems = schema.validate_record("r", record)
    assert any("speedup" in p and "inconsistent" in p for p in problems)


def test_validator_flags_dishonest_oversubscription():
    record = _campaign_record()
    record["oversubscribed"] = False  # 4 workers on 1 CPU
    problems = schema.validate_record("r", record)
    assert any("oversubscribed" in p for p in problems)


def test_validator_flags_unknown_experiments_and_bad_verdicts():
    assert schema.validate_record("r", {"experiment": "mystery"})
    record = _campaign_record()
    record["cells"] = {"shadow/Sodor": "maybe"}
    assert any(
        "cells" in p for p in schema.validate_record("r", record)
    )


def test_parallel_metrics_imply_an_oversubscribed_field():
    """The gate reads ``oversubscribed`` off any record with a parallel
    metric; validation must guarantee the flag is there."""
    for name, spec in schema.EXPERIMENTS.items():
        if any(metric.parallel for metric in spec.metrics):
            assert "oversubscribed" in spec.fields, name


def test_records_cli_on_committed_files_and_garbage(tmp_path, capsys):
    paths = [str(REPO_ROOT / name) for name in schema.DEFAULT_FILES]
    assert schema.main(paths) == 0
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text('{"r": {"experiment": "mystery"}}')
    assert schema.main([str(bad)]) == 1
    garbage = tmp_path / "BENCH_garbage.json"
    garbage.write_text("{not json")
    assert schema.main([str(garbage)]) == 1
    assert schema.main([str(tmp_path / "notes.txt")]) == 1  # unknown suffix
    assert schema.main([]) == 2
    capsys.readouterr()  # keep the report out of pytest's captured noise


def _load_update_bench_record():
    """The benchmark suites' record writer, loaded from its conftest."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.update_bench_record


def test_update_bench_record_refuses_a_record_missing_a_field(tmp_path):
    update_bench_record = _load_update_bench_record()
    path = tmp_path / "BENCH_campaign.json"
    update_bench_record(path, "grid", _campaign_record())
    record = _campaign_record()
    del record["n_shards"]
    with pytest.raises(ValueError, match="n_shards"):
        update_bench_record(path, "broken", record)
    assert list(json.loads(path.read_text())) == ["grid"]  # nothing written


# ----------------------------------------------------------------------
# The perf gate
# ----------------------------------------------------------------------
def _explorer_record(states_per_s: float = 20000.0) -> dict:
    return {
        "experiment": "explorer-throughput",
        "scale": "quick",
        "cpu_count": 1,
        "cell": {"panel": "a", "structure": "rob", "size": 4},
        "kind": "proved",
        "states": 74878,
        "engine_mode": "vector",
        "legacy": {
            "elapsed_s": 5.0,
            "states_per_s": 15000.0,
            "visited_keys": 74878,
            "visited_bytes": 1000,
        },
        "engine": {
            "elapsed_s": 3.0,
            "states_per_s": states_per_s,
            "visited_keys": 74878,
            "visited_bytes": 200,
        },
        "speedup": round(states_per_s / 15000.0, 3),
        "visited_bytes_ratio": 0.2,
    }


def test_gate_passes_identical_records():
    baseline = {"rob4": _explorer_record()}
    failures, _ = perf_gate.gate_records(
        baseline, copy.deepcopy(baseline), tolerance=0.2
    )
    assert failures == []


def test_gate_fails_on_a_throughput_regression():
    baseline = {"rob4": _explorer_record(20000.0)}
    fresh = {"rob4": _explorer_record(10000.0)}  # 2x slower
    failures, _ = perf_gate.gate_records(baseline, fresh, tolerance=0.2)
    assert any("states/s" in f for f in failures)


def test_gate_tolerates_noise_inside_the_tolerance():
    baseline = {"rob4": _explorer_record(20000.0)}
    fresh = {"rob4": _explorer_record(17000.0)}  # -15% < 20%
    failures, _ = perf_gate.gate_records(baseline, fresh, tolerance=0.2)
    assert failures == []


def test_gate_checks_lower_is_better_metrics():
    baseline = {"rob4": _explorer_record()}
    fresh = {"rob4": _explorer_record()}
    fresh["rob4"]["visited_bytes_ratio"] = 0.9  # memory win regressed
    failures, _ = perf_gate.gate_records(baseline, fresh, tolerance=0.2)
    assert any("visited bytes ratio" in f for f in failures)


def test_gate_skips_parallel_metrics_on_oversubscribed_runners():
    """4 workers on 1 CPU cannot demonstrate speedup: the gate must say
    so and skip the parallel metric instead of failing on physics."""
    record = _campaign_record()  # oversubscribed: 4 workers, 1 CPU
    fresh = copy.deepcopy(record)
    fresh["parallel_s"], fresh["speedup"] = 48.0, 0.125  # would fail the gate
    failures, notes = perf_gate.gate_records(
        {"grid": record}, {"grid": fresh}, tolerance=0.2
    )
    assert failures == []
    assert any("oversubscribed" in n for n in notes)
    # On a genuinely parallel runner the same regression must fail.
    record["cpu_count"] = fresh["cpu_count"] = 8
    record["oversubscribed"] = fresh["oversubscribed"] = False
    failures, _ = perf_gate.gate_records(
        {"grid": record}, {"grid": fresh}, tolerance=0.2
    )
    assert any("speedup" in f for f in failures)


def test_gate_multicore_campaign_real_speedup_path():
    """The nightly multi-core lane's contract: a fresh table2-grid
    record measured with real cores (``oversubscribed: false``) flips
    the parallel speedup metric from skipped to gated -- even against
    an oversubscribed single-core baseline."""
    baseline = _campaign_record()  # oversubscribed: true, speedup 0.25
    fresh = _campaign_record()
    fresh.update(cpu_count=4, oversubscribed=False, parallel_s=2.0, speedup=3.0)
    failures, notes = perf_gate.gate_records(
        {"grid": baseline}, {"grid": fresh}, tolerance=0.2
    )
    assert failures == []  # 0.25 -> 3.0 is an improvement, gated and passed
    assert not any("not gated" in n for n in notes)

    regressed = _campaign_record()
    regressed.update(
        cpu_count=4, oversubscribed=False, parallel_s=30.0, speedup=0.2
    )
    failures, _ = perf_gate.gate_records(
        {"grid": fresh}, {"grid": regressed}, tolerance=0.2
    )
    assert any("speedup" in f for f in failures)


def _leak_record() -> dict:
    return {
        "experiment": "fuzz-time-to-leak",
        "cpu_count": 1,
        "config": {},
        "trials_to_leak": 13,
        "programs_total": 105,
        "found_at": [0, 0, 12],
        "leak_cycles": 6,
        "minimized_length": 3,
        "minimize_probes": 9,
        "coverage_keys": 17,
        "elapsed_s": 0.026,
        "time_to_first_leak_s": 0.026,
    }


def test_gate_skips_metrics_below_the_noise_floor():
    record = _leak_record()
    fresh = copy.deepcopy(record)
    fresh["time_to_first_leak_s"] = 0.2  # "8x worse" -- but 26ms baseline
    failures, notes = perf_gate.gate_records(
        {"leak": record}, {"leak": fresh}, tolerance=0.2
    )
    assert failures == []
    assert any("floor" in n for n in notes)


def test_gate_reports_unrefreshed_and_new_records_as_notes():
    baseline = {"old": _explorer_record()}
    fresh = {"new": _explorer_record()}
    failures, notes = perf_gate.gate_records(baseline, fresh, tolerance=0.2)
    assert failures == []
    assert any("not refreshed" in n for n in notes)
    assert any("no baseline" in n for n in notes)


def test_gate_cli_end_to_end(tmp_path, capsys):
    baseline_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    (baseline_dir / "BENCH_explorer.json").write_text(
        json.dumps({"rob4": _explorer_record(20000.0)})
    )
    (fresh_dir / "BENCH_explorer.json").write_text(
        json.dumps({"rob4": _explorer_record(19000.0)})
    )
    argv = [
        "--baseline-dir", str(baseline_dir),
        "--fresh-dir", str(fresh_dir),
        "--files", "BENCH_explorer.json",
    ]
    assert perf_gate.main([*argv, "--tolerance", "0.2"]) == 0
    assert perf_gate.main([*argv, "--tolerance", "0.01"]) == 1
    assert perf_gate.main(argv) == 0  # default tolerance, 20%
    capsys.readouterr()


def _gate_dirs(tmp_path, baseline: str | None, fresh: str | None):
    """Baseline and fresh dirs holding BENCH_explorer.json (``None``:
    absent) next to a well-formed BENCH_fuzz.json pair."""
    fuzz = json.dumps({"leak": _leak_record()})
    dirs = []
    for side, text in (("base", baseline), ("fresh", fresh)):
        directory = tmp_path / side
        directory.mkdir()
        (directory / "BENCH_fuzz.json").write_text(fuzz)
        if text is not None:
            (directory / "BENCH_explorer.json").write_text(text)
        dirs.append(directory)
    return [
        "--baseline-dir", str(dirs[0]),
        "--fresh-dir", str(dirs[1]),
        "--files", "BENCH_explorer.json", "BENCH_fuzz.json",
    ]


_GOOD = json.dumps({"rob4": _explorer_record()})


@pytest.mark.parametrize(
    "baseline, fresh",
    [
        pytest.param(
            json.dumps({"rob4": {"experiment": "mystery"}}), _GOOD,
            id="malformed-baseline",
        ),
        pytest.param(
            _GOOD, json.dumps({"rob4": {"experiment": "explorer-throughput"}}),
            id="malformed-fresh",
        ),
        pytest.param(_GOOD, '{"rob4": ', id="unparsable-fresh"),
    ],
)
def test_gate_fails_on_malformed_records(tmp_path, capsys, baseline, fresh):
    assert perf_gate.main(_gate_dirs(tmp_path, baseline, fresh)) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err and "BENCH_explorer.json" in err


def test_gate_notes_a_missing_fresh_file(tmp_path, capsys):
    assert perf_gate.main(_gate_dirs(tmp_path, _GOOD, None)) == 0
    out = capsys.readouterr().out
    assert "BENCH_explorer.json: no fresh file; skipped" in out
