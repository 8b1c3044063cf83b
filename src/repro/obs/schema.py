"""Schema validation for JSONL trace files (``python -m repro.obs.schema``).

Pins the shape of the records :mod:`repro.obs.sinks` emits, in the
style of :mod:`repro.bench.records`: every line is a JSON object
discriminated by ``"type"``; each type carries its required fields with
the right types; cross-record invariants (unique span ids, resolvable
parents, ``t1 >= t0``, exactly one header) are checked once the shapes
pass.  Interleaved campaign-log records (``campaign`` / ``result``) are
tolerated and skipped -- the two formats share files by design.

The CI ``obs`` smoke job validates the uploaded trace artifact with
this module; ``--require-worker-spans`` additionally asserts the trace
contains spans recorded *off* the coordinator (the merged-trace
acceptance check for the process backend)::

    python -m repro.obs.schema trace.jsonl --require-worker-spans
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

from repro.obs.sinks import TRACE_TYPES, TRACE_VERSION

#: Campaign-log record types allowed to interleave with a trace.
_FOREIGN_TYPES = frozenset({"campaign", "result"})

_NUM = (int, float)


def _field(types, *, optional_none: bool = False) -> Callable[[Any], str | None]:
    def check(value):
        if optional_none and value is None:
            return None
        if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)
        ):
            return f"expected {types}, got bool"
        if not isinstance(value, types):
            return f"expected {types}, got {type(value).__name__}"
        return None

    return check


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


#: Required fields per record type.
SCHEMAS: dict[str, dict[str, Callable[[Any], str | None]]] = {
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
    "metrics": {
        "metrics": _field(dict),
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
        shape_ok = True
        for field, check in SCHEMAS[kind].items():
            if field not in record:
                errors.append(f"{where}: {kind}: missing field {field!r}")
                shape_ok = False
                continue
            problem = check(record[field])
            if problem:
                errors.append(f"{where}: {kind}: field {field!r}: {problem}")
                shape_ok = False
        if not shape_ok:
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
    errors.extend(
        validate_trace(
            records,
            label=path.name,
            require_worker_spans=require_worker_spans,
        )
    )
    return errors


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    require_workers = "--require-worker-spans" in args
    paths = [Path(arg) for arg in args if not arg.startswith("--")]
    if not paths:
        print(
            "usage: python -m repro.obs.schema TRACE [...] "
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
