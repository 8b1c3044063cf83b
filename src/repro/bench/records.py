"""Schema validation for the committed ``BENCH_*.json`` records.

The committed baselines are three files of named records at the
repository root (``BENCH_campaign.json``, ``BENCH_explorer.json``,
``BENCH_fuzz.json``); the benchmark suites write fresh records of the
same names to the gitignored ``.bench/``.  The perf-regression gate
(:mod:`repro.bench.perf_gate`) and the report CLI both consume them, so
a silently malformed record -- a hand-edited baseline, a benchmark that
stopped stamping a field -- would rot the gate into a no-op.  This
module pins the shape:

- every file is a JSON object of named records,
- every record names a known ``experiment`` and carries that
  experiment's required fields with the right types (positive where a
  zero would be meaningless),
- derived fields are cross-checked (``speedup`` must match its
  numerator/denominator to rounding, ``oversubscribed`` must match
  ``n_workers`` vs ``cpu_count``).

Run as a module to validate the committed files (the tier-1 suite and a
CI step both do), or name fresh ones::

    python -m repro.bench.records [FILE ...]
    python -m repro.bench.records .bench/BENCH_fuzz.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

#: Verdict kinds a campaign cell may record.
KINDS = ("proved", "attack", "timeout")

#: State engines an ``engine_mode`` stamp may name: the search has one.
ENGINE_MODES = ("vector",)

#: Relative slack allowed between a recorded ratio (``speedup``,
#: ``visited_bytes_ratio``) and its recomputation from the recorded
#: numerator/denominator -- generous against 3-decimal rounding.
RATIO_SLACK = 0.02

#: The default record files, relative to a repository root.
DEFAULT_FILES = (
    "BENCH_campaign.json",
    "BENCH_explorer.json",
    "BENCH_fuzz.json",
)

_NUM = (int, float)


def _field(types, *, positive: bool = False) -> Callable[[Any], str | None]:
    def check(value):
        if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)
        ):
            return f"expected {types}, got bool"
        if not isinstance(value, types):
            return f"expected {types}, got {type(value).__name__}"
        if positive and not value > 0:
            return f"expected a positive value, got {value!r}"
        return None

    return check


def _kind(value):
    if value not in KINDS:
        return f"expected one of {KINDS}, got {value!r}"
    return None


def _engine_mode(value):
    if value not in ENGINE_MODES:
        return f"expected one of {ENGINE_MODES}, got {value!r}"
    return None


def _cells(value):
    if not isinstance(value, dict) or not value:
        return "expected a non-empty cell->verdict object"
    for cell, kind in value.items():
        if not isinstance(cell, str) or kind not in KINDS:
            return f"bad cell entry {cell!r}: {kind!r}"
    return None


def _timing(value):
    """A ``{elapsed_s, states_per_s, visited_keys, visited_bytes}`` leg."""
    if not isinstance(value, dict):
        return "expected a timing object"
    for name in ("elapsed_s", "states_per_s", "visited_keys", "visited_bytes"):
        leg = value.get(name)
        if not isinstance(leg, _NUM) or isinstance(leg, bool) or leg <= 0:
            return f"field {name!r} must be a positive number, got {leg!r}"
    return None


#: Required fields per experiment.  ``experiment`` and ``cpu_count`` are
#: checked for every record; ``scale`` for every model-checking record.
SCHEMAS: dict[str, dict[str, Callable[[Any], str | None]]] = {
    "table2-grid": {
        "scale": _field(str),
        "n_workers": _field(int, positive=True),
        "oversubscribed": _field(bool),
        "n_units": _field(int, positive=True),
        "n_shards": _field(int, positive=True),
        "serial_s": _field(_NUM, positive=True),
        "parallel_s": _field(_NUM, positive=True),
        "speedup": _field(_NUM, positive=True),
        "cells": _cells,
    },
    "explorer-throughput": {
        "scale": _field(str),
        "cell": _field(dict),
        "kind": _kind,
        "states": _field(int, positive=True),
        "engine_mode": _engine_mode,
        "legacy": _timing,
        "engine": _timing,
        "speedup": _field(_NUM, positive=True),
        "visited_bytes_ratio": _field(_NUM, positive=True),
    },
    "tracing-overhead": {
        "scale": _field(str),
        "cell": _field(dict),
        "kind": _kind,
        "states": _field(int, positive=True),
        "engine_mode": _engine_mode,
        "off": _timing,
        "noop": _timing,
        "jsonl": _timing,
        "overhead_noop": _field(_NUM, positive=True),
        "overhead_jsonl": _field(_NUM, positive=True),
        "trace_records": _field(int, positive=True),
    },
    "fuzz-throughput": {
        "config": _field(dict),
        "programs": _field(int, positive=True),
        "product_cycles": _field(int, positive=True),
        "elapsed_s": _field(_NUM, positive=True),
        "programs_per_s": _field(_NUM, positive=True),
        "cycles_per_s": _field(_NUM, positive=True),
        "verdicts": _field(dict),
        "coverage_keys": _field(int),
    },
    "fuzz-time-to-leak": {
        "config": _field(dict),
        "trials_to_leak": _field(int, positive=True),
        "programs_total": _field(int, positive=True),
        "found_at": _field(list),
        "leak_cycles": _field(int, positive=True),
        "minimized_length": _field(int, positive=True),
        "minimize_probes": _field(int),
        "coverage_keys": _field(int),
        "elapsed_s": _field(_NUM, positive=True),
        "time_to_first_leak_s": _field(_NUM, positive=True),
    },
}

#: ``speedup`` recomputation per experiment: (numerator, denominator).
_SPEEDUP_LEGS = {
    "table2-grid": ("serial_s", "parallel_s"),
}


def validate_record(name: str, record: Any) -> list[str]:
    """Validate one named record; returns human-readable problems."""
    if not isinstance(record, dict):
        return [f"{name}: record is not an object"]
    experiment = record.get("experiment")
    if experiment not in SCHEMAS:
        return [
            f"{name}: unknown experiment {experiment!r} "
            f"(known: {', '.join(sorted(SCHEMAS))})"
        ]
    errors: list[str] = []
    cpu = record.get("cpu_count")
    if cpu is not None and (
        not isinstance(cpu, int) or isinstance(cpu, bool) or cpu < 1
    ):
        errors.append(f"{name}: cpu_count must be a positive int or null")
    for field, check in SCHEMAS[experiment].items():
        if field not in record:
            errors.append(f"{name}: missing required field {field!r}")
            continue
        problem = check(record[field])
        if problem:
            errors.append(f"{name}: field {field!r}: {problem}")
    if errors:
        return errors
    # Cross-field honesty checks (only once the shape is right).
    legs = _SPEEDUP_LEGS.get(experiment)
    if legs:
        expected = record[legs[0]] / record[legs[1]]
        if abs(record["speedup"] - expected) > RATIO_SLACK * expected:
            errors.append(
                f"{name}: speedup {record['speedup']} inconsistent with "
                f"{legs[0]}/{legs[1]} = {expected:.3f}"
            )
    if "oversubscribed" in SCHEMAS[experiment] and isinstance(cpu, int):
        expected_flag = record["n_workers"] > cpu
        if record["oversubscribed"] != expected_flag:
            errors.append(
                f"{name}: oversubscribed={record['oversubscribed']} but "
                f"n_workers={record['n_workers']} on {cpu} CPUs"
            )
    if experiment == "explorer-throughput":
        ratio = record["engine"]["visited_bytes"] / record["legacy"]["visited_bytes"]
        if abs(record["visited_bytes_ratio"] - ratio) > RATIO_SLACK * ratio:
            errors.append(
                f"{name}: visited_bytes_ratio {record['visited_bytes_ratio']} "
                f"inconsistent with recorded footprints ({ratio:.3f})"
            )
    if experiment == "tracing-overhead":
        for field, leg in (
            ("overhead_noop", "noop"),
            ("overhead_jsonl", "jsonl"),
        ):
            expected = (
                record["off"]["states_per_s"] / record[leg]["states_per_s"]
            )
            if abs(record[field] - expected) > RATIO_SLACK * expected:
                errors.append(
                    f"{name}: {field} {record[field]} inconsistent with "
                    f"recorded states/s ({expected:.3f})"
                )
    return errors


def validate_records(data: Any, label: str = "records") -> list[str]:
    """Validate one parsed record file (an object of named records)."""
    if not isinstance(data, dict):
        return [f"{label}: top level must be an object of named records"]
    if not data:
        return [f"{label}: no records"]
    errors: list[str] = []
    for name, record in data.items():
        errors.extend(
            f"{label}: {problem}"
            for problem in validate_record(name, record)
        )
    return errors


def validate_file(path: Path) -> list[str]:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return [f"{path}: file not found"]
    except ValueError as exc:
        return [f"{path}: not valid JSON ({exc})"]
    return validate_records(data, label=path.name)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(arg) for arg in args] or [Path(name) for name in DEFAULT_FILES]
    errors: list[str] = []
    for path in paths:
        problems = validate_file(path)
        errors.extend(problems)
        status = "FAIL" if problems else "ok"
        print(f"{path}: {status}")
    for problem in errors:
        print(f"  {problem}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
