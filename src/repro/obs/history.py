"""Persistent run history: an append-only JSONL ledger with drift gates.

Every campaign or fuzz run invoked with ``--history PATH`` appends one
JSON line describing itself -- a *config fingerprint* (a stable hash of
the knobs that define what was run, so only like runs compare), verdict
counts, wall time, and a bench-style metric summary (states and
states/s).  The ledger is the cross-run memory a single run's trace
and log lack: ``python -m repro.obs.history`` then answers "did this configuration
get slower or change its verdicts?" without re-running anything.

Subcommands:

- ``list`` -- the ledger, one line per run, newest last;
- ``diff`` -- the latest run against the previous run of the same
  fingerprint, metric by metric;
- ``regressions`` -- the latest run against a **rolling baseline** (the
  mean of up to ``--window`` previous same-fingerprint runs), gated
  with exactly :mod:`repro.bench.perf_gate`'s machinery: the same
  :class:`~repro.bench.perf_gate.Metric` direction/tolerance arithmetic
  (``--tolerance`` / ``$REPRO_PERF_TOLERANCE``, default 0.2) and the
  same noise floor (a wall time below 2 s is timer noise, not signal).
  Verdict counts are compared *exactly* -- a verdict that drifts
  between identical configurations is a determinism bug, and no
  tolerance excuses it.

Exit status of ``regressions``: 0 when the latest run passes (or has no
same-fingerprint baseline yet -- coverage never fails the gate, only
measurements do), 1 on a regression or verdict drift, 2 when the ledger
is missing or unreadable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any

from repro.bench.perf_gate import DEFAULT_TOLERANCE, TOLERANCE_ENV, Metric

#: Rolling-baseline width: the latest run compares against the mean of
#: up to this many previous same-fingerprint runs.
DEFAULT_WINDOW = 5

#: Wall times below this are dominated by interpreter/startup jitter;
#: the wall-time gate skips them (same idea as perf_gate's floors).
WALL_FLOOR_S = 2.0


def config_fingerprint(desc: dict[str, Any]) -> str:
    """Stable hash of a run's defining knobs (order-insensitive)."""
    canonical = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def make_run_record(
    *,
    desc: dict[str, Any],
    experiment: str,
    backend: str,
    capacity: int,
    units: int,
    verdicts: dict[str, int],
    wall_s: float,
    states: int,
    wall_unix_s: float,
) -> dict[str, Any]:
    """One ledger line (plain JSON-safe data, ``type: "run"``)."""
    return {
        "type": "run",
        "fingerprint": config_fingerprint(desc),
        "config": desc,
        "experiment": experiment,
        "backend": backend,
        "capacity": capacity,
        "units": units,
        "verdicts": dict(sorted(verdicts.items())),
        "wall_s": wall_s,
        "states": states,
        "states_per_s": (states / wall_s) if wall_s > 0 else 0.0,
        "wall_unix_s": wall_unix_s,
    }


def append_run(path: str, record: dict[str, Any]) -> None:
    """Append one run record (creates the ledger and parents on demand)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
        handle.write("\n")


def read_runs(path: str) -> list[dict[str, Any]]:
    """Every ``run`` record in ledger order (raises ``OSError`` if absent)."""
    runs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn tail line must not poison the ledger
            if isinstance(record, dict) and record.get("type") == "run":
                runs.append(record)
    return runs


def _get(name):
    def value(record: dict):
        v = record.get(name)
        return v if isinstance(v, (int, float)) else None

    return value


#: The gated quantities of a run record, in perf_gate's Metric terms.
#: states/s has no floor (zero-state runs report None and are skipped);
#: wall time is noise-floored like perf_gate's sub-second benchmarks.
HISTORY_GATES: list[Metric] = [
    Metric("states/s", _get("states_per_s")),
    Metric("wall s", _get("wall_s"), direction="lower", floor=WALL_FLOOR_S),
]


def _baseline_value(runs: list[dict], metric: Metric) -> float | None:
    """Rolling baseline: the mean of the runs' defined metric values."""
    values = [v for v in (metric.value(run) for run in runs) if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def gate_latest(
    runs: list[dict[str, Any]], tolerance: float, window: int
) -> tuple[list[str], list[str]]:
    """Gate the ledger's latest run against its rolling baseline.

    Returns ``(failures, notes)`` exactly like
    :func:`repro.bench.perf_gate.gate_records`: failures are metric
    regressions beyond the tolerance or exact verdict drift; notes are
    comparisons skipped with their reasons.
    """
    failures: list[str] = []
    notes: list[str] = []
    latest = runs[-1]
    fingerprint = latest.get("fingerprint")
    label = f"{latest.get('experiment', '?')}@{fingerprint}"
    baseline_runs = [
        run for run in runs[:-1] if run.get("fingerprint") == fingerprint
    ]
    if not baseline_runs:
        notes.append(f"{label}: no previous run of this config; skipped")
        return failures, notes
    baseline_runs = baseline_runs[-max(1, window):]
    for metric in HISTORY_GATES:
        base_value = _baseline_value(baseline_runs, metric)
        new_value = metric.value(latest)
        if base_value is None or new_value is None:
            notes.append(f"{label}: {metric.name} missing on one side")
            continue
        if base_value < metric.floor:
            notes.append(
                f"{label}: {metric.name} baseline {base_value:g} below "
                f"gating floor {metric.floor:g}"
            )
            continue
        # perf_gate's comparison arithmetic, verbatim.
        if metric.direction == "higher":
            ok = new_value >= base_value * (1.0 - tolerance)
        else:
            ok = new_value <= base_value * (1.0 + tolerance)
        if not ok:
            failures.append(
                f"{label}: {metric.name} regressed {base_value:g} -> "
                f"{new_value:g} (tolerance {tolerance:.0%}, baseline of "
                f"{len(baseline_runs)} run(s), {metric.direction} is better)"
            )
    # Verdict drift: identical configurations must produce identical
    # verdict counts (the repo-wide bit-identity contract) -- compared
    # against the immediately-previous run, exactly, no tolerance.
    previous = baseline_runs[-1]
    prev_verdicts = previous.get("verdicts") or {}
    new_verdicts = latest.get("verdicts") or {}
    if prev_verdicts != new_verdicts:
        failures.append(
            f"{label}: verdict counts drifted {prev_verdicts} -> "
            f"{new_verdicts} (identical configs must match exactly)"
        )
    return failures, notes


def _fmt_run(run: dict[str, Any]) -> str:
    verdicts = " ".join(
        f"{k}={v}" for k, v in (run.get("verdicts") or {}).items()
    )
    return (
        f"{run.get('experiment', '?'):<12} fp={run.get('fingerprint')} "
        f"backend={run.get('backend', '?')}x{run.get('capacity', '?')} "
        f"units={run.get('units', '?')} wall={run.get('wall_s', 0):.2f}s "
        f"states/s={run.get('states_per_s', 0):.0f} [{verdicts}]"
    )


def _cmd_list(runs: list[dict], args) -> int:
    for run in runs:
        print(_fmt_run(run))
    print(f"{len(runs)} run(s) in {args.ledger}")
    return 0


def _cmd_diff(runs: list[dict], args) -> int:
    latest = runs[-1]
    fingerprint = latest.get("fingerprint")
    previous = None
    for run in reversed(runs[:-1]):
        if run.get("fingerprint") == fingerprint:
            previous = run
            break
    print(f"latest:   {_fmt_run(latest)}")
    if previous is None:
        print("previous: (no earlier run of this config)")
        return 0
    print(f"previous: {_fmt_run(previous)}")
    for metric in HISTORY_GATES:
        old, new = metric.value(previous), metric.value(latest)
        if old is None or new is None:
            continue
        delta = "" if old == 0 else f" ({(new - old) / old:+.1%})"
        print(f"  {metric.name}: {old:g} -> {new:g}{delta}")
    if (previous.get("verdicts") or {}) != (latest.get("verdicts") or {}):
        print(
            f"  verdicts DRIFTED: {previous.get('verdicts')} -> "
            f"{latest.get('verdicts')}"
        )
    return 0


def _cmd_regressions(runs: list[dict], args) -> int:
    failures, notes = gate_latest(runs, args.tolerance, args.window)
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    print(
        f"history gate: {len(runs)} run(s), tolerance "
        f"{args.tolerance:.0%}, window {args.window}: "
        + ("FAIL" if failures else "pass")
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "command", choices=("list", "diff", "regressions"),
        help="list the ledger / diff latest vs previous / gate the latest run",
    )
    parser.add_argument(
        "--ledger", required=True, metavar="PATH",
        help="the JSONL run ledger (what campaigns' --history appends to)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help=(
            "allowed relative regression "
            f"(default ${TOLERANCE_ENV} or {DEFAULT_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help=f"rolling-baseline width in runs (default {DEFAULT_WINDOW})",
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get(TOLERANCE_ENV, DEFAULT_TOLERANCE))
    if not 0 <= tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {tolerance}")
    args.tolerance = tolerance
    if args.window < 1:
        parser.error("--window must be >= 1")

    try:
        runs = read_runs(args.ledger)
    except OSError as exc:
        print(f"history: cannot read {args.ledger}: {exc}", file=sys.stderr)
        return 2
    if not runs:
        print(f"history: no runs in {args.ledger}", file=sys.stderr)
        return 2
    handler = {
        "list": _cmd_list,
        "diff": _cmd_diff,
        "regressions": _cmd_regressions,
    }[args.command]
    return handler(runs, args)


if __name__ == "__main__":
    sys.exit(main())
