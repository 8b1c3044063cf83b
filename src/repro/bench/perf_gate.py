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
- **Parallel metrics** (campaign speedups involving ``n_workers``) are
  gated only when the *fresh* record was measured with real parallelism
  available; a record stamped ``oversubscribed`` (more workers than
  CPUs -- e.g. a single-core container) can only measure dispatch
  overhead, so the gate falls back to the throughput metrics and says
  so rather than failing on physics.
- Metrics whose baseline is **below a floor** (a 26 ms time-to-leak)
  are skipped: at that scale timer noise swamps any real regression.

Tolerance is a relative fraction (default 0.2, i.e. a metric may be up
to 20% worse than baseline), settable per run via ``--tolerance`` or the
``REPRO_PERF_TOLERANCE`` environment variable.  Records present only in
the baseline (a benchmark that did not run) or only in the fresh set (a
new benchmark, no baseline yet) are reported and skipped -- the gate
never fails on coverage, only on measured regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable

from repro.bench.records import DEFAULT_FILES

#: Environment override for the relative tolerance.
TOLERANCE_ENV = "REPRO_PERF_TOLERANCE"
DEFAULT_TOLERANCE = 0.2


class Metric:
    """One gated quantity of one experiment's records."""

    def __init__(
        self,
        name: str,
        value: Callable[[dict], float | None],
        *,
        direction: str = "higher",
        parallel: bool = False,
        floor: float = 0.0,
    ):
        self.name = name
        self.value = value
        self.direction = direction  # "higher" or "lower" is better
        self.parallel = parallel
        self.floor = floor


def _path(*parts: str) -> Callable[[dict], float | None]:
    def get(record: dict):
        cur: Any = record
        for part in parts:
            if not isinstance(cur, dict) or part not in cur:
                return None
            cur = cur[part]
        return cur if isinstance(cur, (int, float)) else None

    return get


#: Gated metrics per experiment (see the module docstring for policy).
GATES: dict[str, list[Metric]] = {
    "table2-grid": [
        Metric("speedup", _path("speedup"), parallel=True),
    ],
    "explorer-throughput": [
        Metric("engine states/s", _path("engine", "states_per_s")),
        # Same-process engine-vs-legacy ratio: throughput, not parallel.
        Metric("speedup vs legacy", _path("speedup")),
        Metric(
            "visited bytes ratio",
            _path("visited_bytes_ratio"),
            direction="lower",
        ),
    ],
    "tracing-overhead": [
        Metric("untraced states/s", _path("off", "states_per_s")),
        # Overhead multipliers: lower is better, ~1.0 is the promise.
        Metric("noop overhead", _path("overhead_noop"), direction="lower"),
        Metric("jsonl overhead", _path("overhead_jsonl"), direction="lower"),
    ],
    "fuzz-throughput": [
        Metric("programs/s", _path("programs_per_s")),
        Metric("product cycles/s", _path("cycles_per_s")),
    ],
    "fuzz-time-to-leak": [
        Metric(
            "time to first leak (s)",
            _path("time_to_first_leak_s"),
            direction="lower",
            floor=0.5,  # sub-second baselines are timer noise
        ),
    ],
}


def _oversubscribed(record: dict) -> bool:
    if isinstance(record.get("oversubscribed"), bool):
        return record["oversubscribed"]
    workers, cpus = record.get("n_workers"), record.get("cpu_count")
    if isinstance(workers, int) and isinstance(cpus, int):
        return workers > cpus
    return False


def gate_records(
    baseline: dict,
    fresh: dict,
    tolerance: float,
    label: str = "records",
) -> tuple[list[str], list[str]]:
    """Gate one file's fresh records against its baseline.

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
        experiment = new.get("experiment") if isinstance(new, dict) else None
        metrics = GATES.get(experiment)
        if metrics is None:
            notes.append(
                f"{label}:{name}: no gate for experiment {experiment!r}"
            )
            continue
        single_core = _oversubscribed(new)
        for metric in metrics:
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


def _load(path: Path) -> dict | None:
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        return None
    return data if isinstance(data, dict) else None


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
        "--tolerance", type=float, default=None,
        help=(
            "allowed relative regression "
            f"(default ${TOLERANCE_ENV} or {DEFAULT_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--files", nargs="*", default=list(DEFAULT_FILES),
        help="record file names to gate (default: all three)",
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get(TOLERANCE_ENV, DEFAULT_TOLERANCE))
    if not 0 <= tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {tolerance}")

    failures: list[str] = []
    notes: list[str] = []
    compared = 0
    for name in args.files:
        baseline = _load(args.baseline_dir / name)
        fresh = _load(args.fresh_dir / name)
        if baseline is None or fresh is None:
            side = "baseline" if baseline is None else "fresh"
            notes.append(f"{name}: no readable {side} records; skipped")
            continue
        compared += 1
        file_failures, file_notes = gate_records(
            baseline, fresh, tolerance, label=name
        )
        failures.extend(file_failures)
        notes.extend(file_notes)

    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if compared == 0:
        print("perf gate: no record files compared", file=sys.stderr)
        return 1
    print(
        f"perf gate: {compared} file(s), tolerance {tolerance:.0%}: "
        + ("FAIL" if failures else "pass")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
