"""Shared fixtures for the benchmark suite.

Every benchmark runs a whole verification task once (``pedantic`` with one
round): the measured quantity is the end-to-end checking time the paper's
tables report, not a micro-operation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.configs import scale_by_name
from repro.obs import schema

#: Where the suites write fresh ``BENCH_*.json`` records (gitignored).  The
#: committed files at the repository root are the perf gate's baselines;
#: a benchmark never rewrites them.
BENCH_OUT = Path(__file__).resolve().parents[1] / ".bench"


@pytest.fixture(scope="session")
def scale():
    """Budget profile (override with REPRO_BENCH_SCALE=paper)."""
    return scale_by_name(os.environ.get("REPRO_BENCH_SCALE", "quick"))


def update_bench_record(path: Path, key: str, record: dict) -> None:
    """Merge one named record into a fresh ``BENCH_*.json`` under ``BENCH_OUT``.

    Shared by the benchmark suites so every record file keeps one format:
    a dict of named records.  The record is validated against
    :mod:`repro.obs.schema` first: a benchmark that builds a malformed
    record fails here instead of leaving it for the perf gate.
    """
    problems = schema.validate_record(key, record)
    if problems:
        raise ValueError("malformed BENCH record:\n  " + "\n  ".join(problems))
    path.parent.mkdir(parents=True, exist_ok=True)
    records: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
        if isinstance(existing, dict):
            records = existing
    records[key] = record
    path.write_text(json.dumps(records, indent=2) + "\n")


def run_once(benchmark, fn):
    """Measure one full verification run."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
