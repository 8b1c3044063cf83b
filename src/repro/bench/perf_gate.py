"""Performance-regression gate over the ``BENCH_*.json`` records.

Compares a *fresh* set of benchmark records (produced by running the
smoke- or full-mode benchmark suites on the current checkout, which
write to the gitignored ``.bench/``) against a *baseline* set (the
committed records at the repository root) and fails when a gated metric
regressed beyond the tolerance::

    python -m repro.bench.perf_gate --baseline-dir . --fresh-dir .bench

A baseline changes only when a change copies ``.bench/BENCH_x.json``
over the committed file on purpose.

Gating policy, metric by metric:

- **Throughput metrics** (states/s, programs/s, the single-process
  engine-vs-legacy speedup) are gated everywhere: they measure one
  process doing work and regress the same way on any runner.
- **Parallel metrics** (campaign speedups over worker processes) are
  gated only when the *fresh* record was measured with real parallelism
  available; a record measured oversubscribed (more workers than CPUs
  -- e.g. a single-core container) can only measure dispatch overhead,
  so the gate falls back to the throughput metrics and says so rather
  than failing on physics.
- Metrics whose baseline is **below a floor** (a 26 ms time-to-leak)
  are skipped: at that scale timer noise swamps any real regression.

Tolerance is a relative fraction (default 0.2, i.e. a metric may be up
to 20% worse than baseline), settable per run via ``--tolerance``.
Which metrics each experiment gates lives with its record format in
:mod:`repro.obs.schema`; this module holds only the comparison policy.
Every baseline and fresh file the gate loads is validated first: a file
that is present but malformed or unparsable fails the gate with the
validator's messages.  A missing file, a record present only in the
baseline (a benchmark that did not run) or only in the fresh set (a new
benchmark, no baseline yet) is reported and skipped -- the gate never
fails on coverage, only on measured regressions and broken records.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs import schema

DEFAULT_TOLERANCE = 0.2


def gate_records(
    baseline: dict,
    fresh: dict,
    tolerance: float,
    label: str = "records",
) -> tuple[list[str], list[str]]:
    """Gate one file's validated fresh records against its baseline.

    Returns ``(failures, notes)``: failures are regressions beyond the
    tolerance; notes are skipped comparisons with their reasons.
    """
    failures: list[str] = []
    notes: list[str] = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            notes.append(f"{label}:{name}: not refreshed; skipped")
            continue
        if name not in baseline:
            notes.append(f"{label}:{name}: no baseline yet; skipped")
            continue
        base, new = baseline[name], fresh[name]
        single_core = schema.oversubscribed(new)
        for metric in schema.gated_metrics(new):
            if metric.parallel and single_core:
                notes.append(
                    f"{label}:{name}: {metric.name} not gated "
                    "(oversubscribed runner; states/s-only)"
                )
                continue
            base_value = metric.value(base)
            new_value = metric.value(new)
            if base_value is None or new_value is None:
                notes.append(
                    f"{label}:{name}: {metric.name} missing on one side"
                )
                continue
            if base_value < metric.floor:
                notes.append(
                    f"{label}:{name}: {metric.name} baseline "
                    f"{base_value:g} below gating floor {metric.floor:g}"
                )
                continue
            if metric.direction == "higher":
                ok = new_value >= base_value * (1.0 - tolerance)
            else:
                ok = new_value <= base_value * (1.0 + tolerance)
            if not ok:
                failures.append(
                    f"{label}:{name}: {metric.name} regressed "
                    f"{base_value:g} -> {new_value:g} "
                    f"(tolerance {tolerance:.0%}, "
                    f"{metric.direction} is better)"
                )
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", type=Path, required=True,
        help="directory holding the baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh-dir", type=Path, required=True,
        help="directory holding the freshly measured BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed relative regression (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--files", nargs="*", default=list(schema.DEFAULT_FILES),
        help="record file names to gate (default: all three)",
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance
    if not 0 <= tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {tolerance}")

    invalid: list[str] = []
    failures: list[str] = []
    notes: list[str] = []
    compared = 0
    for name in args.files:
        sides = []
        for side, directory in (
            ("baseline", args.baseline_dir),
            ("fresh", args.fresh_dir),
        ):
            path = directory / name
            if not path.exists():
                notes.append(f"{name}: no {side} file; skipped")
                sides.append(None)
                continue
            records, problems = schema.read_bench(path)
            invalid.extend(problems)
            sides.append(None if problems else records)
        baseline, fresh = sides
        if baseline is None or fresh is None:
            continue
        compared += 1
        file_failures, file_notes = gate_records(
            baseline, fresh, tolerance, label=name
        )
        failures.extend(file_failures)
        notes.extend(file_notes)

    for note in notes:
        print(f"note: {note}")
    for problem in invalid:
        print(f"INVALID: {problem}", file=sys.stderr)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if compared == 0 and not invalid:
        print("perf gate: no record files compared", file=sys.stderr)
        return 1
    print(
        f"perf gate: {compared} file(s), tolerance {tolerance:.0%}: "
        + ("FAIL" if failures or invalid else "pass")
    )
    return 1 if failures or invalid else 0


if __name__ == "__main__":
    sys.exit(main())
