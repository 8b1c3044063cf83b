"""One schema for every JSON record the repository writes.

Each record format is declared once, here:

- **BENCH records** (``BENCH_*.json``).  The committed baselines are
  three files of named records at the repository root
  (:data:`DEFAULT_FILES`); the benchmark suites write fresh records of
  the same names to the gitignored ``.bench/``.  Every record names an
  ``experiment``; its :class:`Experiment` entry in :data:`EXPERIMENTS`
  holds the required fields with their types (positive where a zero
  would be meaningless), the cross-field ratio checks (a recorded
  ``speedup`` must match its numerator/denominator to rounding), and the
  metrics the perf gate (:mod:`repro.bench.perf_gate`) compares.
  Records with a parallel metric must carry an honest ``oversubscribed``
  flag (``n_workers`` vs ``cpu_count``).
- **Trace records** (``.jsonl``), the lines :mod:`repro.obs.sinks`
  emits: every line is a JSON object discriminated by ``"type"``; each
  type carries its required fields with the right types; cross-record
  invariants (unique span ids, resolvable parents, ``t1 >= t0``,
  exactly one header) are checked once the shapes pass.  Interleaved
  campaign-log records (``campaign`` / ``result``) are tolerated and
  skipped -- the two formats share files by design.

One field checker serves both.  The CLI picks the format by suffix;
``--require-worker-spans`` additionally asserts a trace contains spans
recorded *off* the coordinator (the merged-trace acceptance check for
the executor's pool path)::

    python -m repro.obs.schema BENCH_campaign.json .bench/BENCH_fuzz.json
    python -m repro.obs.schema trace.jsonl --require-worker-spans
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.sinks import TRACE_TYPES, TRACE_VERSION

Check = Callable[[Any], "str | None"]

_NUM = (int, float)


def _field(
    types, *, positive: bool = False, optional_none: bool = False
) -> Check:
    allowed = types if isinstance(types, tuple) else (types,)

    def check(value):
        if optional_none and value is None:
            return None
        if isinstance(value, bool) and bool not in allowed:
            return f"expected {types}, got bool"
        if not isinstance(value, types):
            return f"expected {types}, got {type(value).__name__}"
        if positive and not value > 0:
            return f"expected a positive value, got {value!r}"
        return None

    return check


def _one_of(choices: tuple) -> Check:
    def check(value):
        if value not in choices:
            return f"expected one of {choices}, got {value!r}"
        return None

    return check


def _check_fields(fields: dict[str, Check], record: dict, where: str) -> list[str]:
    """The one field checker: each required field present and well-typed."""
    errors: list[str] = []
    for name, check in fields.items():
        if name not in record:
            errors.append(f"{where}: missing field {name!r}")
            continue
        problem = check(record[name])
        if problem:
            errors.append(f"{where}: field {name!r}: {problem}")
    return errors


def _lookup(record: Any, path: str) -> Any:
    """The value at a dotted ``path`` into nested objects, or ``None``."""
    for part in path.split("."):
        if not isinstance(record, dict) or part not in record:
            return None
        record = record[part]
    return record


# ----------------------------------------------------------------------
# BENCH records
# ----------------------------------------------------------------------
#: Verdict kinds a campaign cell may record.
KINDS = ("proved", "attack", "timeout")

#: State engines an ``engine_mode`` stamp may name: the search has one.
ENGINE_MODES = ("vector",)

#: Relative slack allowed between a recorded ratio and its recomputation
#: from the recorded numerator/denominator -- generous against 3-decimal
#: rounding.
RATIO_SLACK = 0.02

#: The default record files, relative to a repository root.
DEFAULT_FILES = (
    "BENCH_campaign.json",
    "BENCH_explorer.json",
    "BENCH_fuzz.json",
)


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


@dataclass(frozen=True)
class Metric:
    """One quantity the perf gate compares: a dotted path into a record."""

    name: str
    path: str
    direction: str = "higher"  # "higher" or "lower" is better
    parallel: bool = False  # measures n_workers > 1: gated on real cores only
    floor: float = 0.0  # baselines below this are timer noise

    def value(self, record: dict) -> float | None:
        value = _lookup(record, self.path)
        return value if isinstance(value, _NUM) else None


@dataclass(frozen=True)
class Experiment:
    """One BENCH experiment: its fields, ratio checks and gated metrics."""

    fields: dict[str, Check]
    #: ``(field, numerator, denominator)``: a recorded ratio must equal
    #: the quotient of the two dotted paths to within :data:`RATIO_SLACK`.
    ratios: tuple[tuple[str, str, str], ...] = ()
    metrics: tuple[Metric, ...] = ()


_MC_CELL = {
    "scale": _field(str),
    "cell": _field(dict),
    "kind": _one_of(KINDS),
    "states": _field(int, positive=True),
    "engine_mode": _one_of(ENGINE_MODES),
}

#: Every BENCH experiment.  ``experiment`` and ``cpu_count`` are checked
#: for every record.
EXPERIMENTS: dict[str, Experiment] = {
    "table2-grid": Experiment(
        fields={
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
        ratios=(("speedup", "serial_s", "parallel_s"),),
        metrics=(Metric("speedup", "speedup", parallel=True),),
    ),
    "explorer-throughput": Experiment(
        fields={
            **_MC_CELL,
            "legacy": _timing,
            "engine": _timing,
            "speedup": _field(_NUM, positive=True),
            "visited_bytes_ratio": _field(_NUM, positive=True),
        },
        ratios=(
            ("visited_bytes_ratio", "engine.visited_bytes", "legacy.visited_bytes"),
        ),
        metrics=(
            Metric("engine states/s", "engine.states_per_s"),
            # Same-process engine-vs-legacy ratio: throughput, not parallel.
            Metric("speedup vs legacy", "speedup"),
            Metric("visited bytes ratio", "visited_bytes_ratio", direction="lower"),
        ),
    ),
    "tracing-overhead": Experiment(
        fields={
            **_MC_CELL,
            "off": _timing,
            "noop": _timing,
            "jsonl": _timing,
            "overhead_noop": _field(_NUM, positive=True),
            "overhead_jsonl": _field(_NUM, positive=True),
            "trace_records": _field(int, positive=True),
        },
        ratios=(
            ("overhead_noop", "off.states_per_s", "noop.states_per_s"),
            ("overhead_jsonl", "off.states_per_s", "jsonl.states_per_s"),
        ),
        metrics=(
            Metric("untraced states/s", "off.states_per_s"),
            # Overhead multipliers: lower is better, ~1.0 is the promise.
            Metric("noop overhead", "overhead_noop", direction="lower"),
            Metric("jsonl overhead", "overhead_jsonl", direction="lower"),
        ),
    ),
    "fuzz-throughput": Experiment(
        fields={
            "config": _field(dict),
            "programs": _field(int, positive=True),
            "product_cycles": _field(int, positive=True),
            "elapsed_s": _field(_NUM, positive=True),
            "programs_per_s": _field(_NUM, positive=True),
            "cycles_per_s": _field(_NUM, positive=True),
            "verdicts": _field(dict),
            "coverage_keys": _field(int),
        },
        metrics=(
            Metric("programs/s", "programs_per_s"),
            Metric("product cycles/s", "cycles_per_s"),
        ),
    ),
    "fuzz-time-to-leak": Experiment(
        fields={
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
        metrics=(
            Metric(
                "time to first leak (s)",
                "time_to_first_leak_s",
                direction="lower",
                floor=0.5,  # sub-second baselines are timer noise
            ),
        ),
    ),
}


def gated_metrics(record: dict) -> tuple[Metric, ...]:
    """The perf gate's metrics for one validated record."""
    return EXPERIMENTS[record["experiment"]].metrics


def oversubscribed(record: dict) -> bool:
    """Whether a validated record ran more workers than CPUs (every
    experiment with a parallel metric requires the flag)."""
    return record.get("oversubscribed") is True


def validate_record(name: str, record: Any) -> list[str]:
    """Validate one named BENCH record; returns human-readable problems."""
    if not isinstance(record, dict):
        return [f"{name}: record is not an object"]
    kind = record.get("experiment")
    spec = EXPERIMENTS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        return [
            f"{name}: unknown experiment {kind!r} "
            f"(known: {', '.join(sorted(EXPERIMENTS))})"
        ]
    errors: list[str] = []
    cpu = record.get("cpu_count")
    if cpu is not None and (
        not isinstance(cpu, int) or isinstance(cpu, bool) or cpu < 1
    ):
        errors.append(f"{name}: cpu_count must be a positive int or null")
    errors.extend(_check_fields(spec.fields, record, name))
    if errors:
        return errors
    # Cross-field honesty checks (only once the shape is right).
    for ratio, numerator, denominator in spec.ratios:
        expected = _lookup(record, numerator) / _lookup(record, denominator)
        if abs(record[ratio] - expected) > RATIO_SLACK * expected:
            errors.append(
                f"{name}: {ratio} {record[ratio]} inconsistent with "
                f"{numerator}/{denominator} = {expected:.3f}"
            )
    if "oversubscribed" in spec.fields and isinstance(cpu, int):
        if record["oversubscribed"] != (record["n_workers"] > cpu):
            errors.append(
                f"{name}: oversubscribed={record['oversubscribed']} but "
                f"n_workers={record['n_workers']} on {cpu} CPUs"
            )
    return errors


def validate_bench(data: Any, label: str = "records") -> list[str]:
    """Validate one parsed BENCH file (an object of named records)."""
    if not isinstance(data, dict):
        return [f"{label}: top level must be an object of named records"]
    if not data:
        return [f"{label}: no records"]
    errors: list[str] = []
    for name, record in data.items():
        errors.extend(
            f"{label}: {problem}" for problem in validate_record(name, record)
        )
    return errors


def read_bench(path: Path) -> tuple[Any, list[str]]:
    """Parse and validate one BENCH file: ``(records, problems)``."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return None, [f"{path}: cannot read ({exc})"]
    except ValueError as exc:
        return None, [f"{path}: not valid JSON ({exc})"]
    return data, validate_bench(data, label=str(path))


# ----------------------------------------------------------------------
# Trace records
# ----------------------------------------------------------------------
#: Campaign-log record types allowed to interleave with a trace.
_FOREIGN_TYPES = frozenset({"campaign", "result"})


def _attrs(value):
    if not isinstance(value, dict):
        return "expected an attrs object"
    if any(not isinstance(key, str) for key in value):
        return "attrs keys must be strings"
    return None


def _counter_values(value):
    if not isinstance(value, dict) or not value:
        return "expected a non-empty name->value object"
    for name, count in value.items():
        if not isinstance(name, str) or not isinstance(count, _NUM):
            return f"bad counter entry {name!r}: {count!r}"
    return None


#: Required fields per trace record type.
TRACE_FIELDS: dict[str, dict[str, Check]] = {
    "trace-header": {
        "version": _field(int),
        "worker": _field(str),
        "spans": _field(int),
        "events": _field(int),
    },
    "span": {
        "name": _field(str),
        "t0": _field(_NUM),
        "t1": _field(_NUM),
        "id": _field(int),
        "parent": _field(int, optional_none=True),
        "worker": _field(str),
        "attrs": _attrs,
    },
    "event": {
        "name": _field(str),
        "t": _field(_NUM),
        "span": _field(int, optional_none=True),
        "worker": _field(str),
        "attrs": _attrs,
    },
    "counters": {
        "values": _counter_values,
    },
}


def validate_trace(
    records: list[Any],
    *,
    label: str = "trace",
    require_worker_spans: bool = False,
) -> list[str]:
    """Validate parsed trace records; returns human-readable problems."""
    errors: list[str] = []
    headers: list[dict] = []
    span_ids: set[int] = set()
    parents: list[tuple[int, int | None]] = []
    workers: set[str] = set()
    for index, record in enumerate(records):
        where = f"{label}:{index + 1}"
        if not isinstance(record, dict):
            errors.append(f"{where}: record is not an object")
            continue
        kind = record.get("type")
        if kind in _FOREIGN_TYPES:
            continue
        if kind not in TRACE_TYPES:
            errors.append(
                f"{where}: unknown record type {kind!r} "
                f"(known: {', '.join(sorted(TRACE_TYPES))})"
            )
            continue
        problems = _check_fields(TRACE_FIELDS[kind], record, f"{where}: {kind}")
        if problems:
            errors.extend(problems)
            continue
        if kind == "trace-header":
            headers.append(record)
            if record["version"] != TRACE_VERSION:
                errors.append(
                    f"{where}: unsupported trace version {record['version']} "
                    f"(expected {TRACE_VERSION})"
                )
        elif kind == "span":
            if record["t1"] < record["t0"]:
                errors.append(f"{where}: span {record['name']!r}: t1 < t0")
            if record["id"] in span_ids:
                errors.append(f"{where}: duplicate span id {record['id']}")
            span_ids.add(record["id"])
            parents.append((record["id"], record["parent"]))
            workers.add(record["worker"])
    if len(headers) != 1:
        errors.append(f"{label}: expected exactly one trace-header, got {len(headers)}")
    for span_id, parent in parents:
        if parent is not None and parent not in span_ids:
            errors.append(f"{label}: span {span_id} has unknown parent {parent}")
    if require_worker_spans and headers:
        coordinator = headers[0]["worker"]
        if not any(worker != coordinator for worker in workers):
            errors.append(
                f"{label}: no worker-side spans (every span is on "
                f"{coordinator!r}); expected spans merged from workers"
            )
    return errors


def validate_file(
    path: Path, *, require_worker_spans: bool = False
) -> list[str]:
    """Validate one file by suffix: ``.json`` BENCH records, ``.jsonl`` a trace."""
    if path.suffix == ".json":
        return read_bench(path)[1]
    if path.suffix != ".jsonl":
        return [f"{path}: expected a .json BENCH file or a .jsonl trace"]
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path}: cannot read ({exc})"]
    records: list[Any] = []
    errors: list[str] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            errors.append(f"{path.name}:{number}: not valid JSON ({exc})")
    return errors + validate_trace(
        records, label=path.name, require_worker_spans=require_worker_spans
    )


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    require_workers = "--require-worker-spans" in args
    paths = [Path(arg) for arg in args if not arg.startswith("--")]
    if not paths:
        print(
            "usage: python -m repro.obs.schema FILE.json|FILE.jsonl [...] "
            "[--require-worker-spans]",
            file=sys.stderr,
        )
        return 2
    errors: list[str] = []
    for path in paths:
        problems = validate_file(path, require_worker_spans=require_workers)
        errors.extend(problems)
        print(f"{path}: {'FAIL' if problems else 'ok'}")
    for problem in errors:
        print(f"  {problem}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
