"""Consolidated evaluation report (``python -m repro.bench.report``).

Runs every experiment of the paper's evaluation section back to back and
prints the tables the way EXPERIMENTS.md presents them.  This is the
one-command artifact-evaluation entry point; the pytest-benchmark suite
in ``benchmarks/`` covers the same ground with assertions and timing
statistics.

The campaign-backed experiments (Tables 2 and 3, the Fig. 2 sweeps, the
fetch-gate ablation and the BOOM hunt) accept ``--workers N`` to fan out
over worker processes and ``--log FILE`` to write a JSONL result log (the
file is overwritten; records stream in as cells finish); ``--from-log
FILE`` re-renders those tables -- hunt narrative included -- from a
previous log without re-running anything.  Observability traces render
with ``python -m repro.obs.report FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs import clock
from repro.bench import ablation, boom_hunt, fig2, table1, table2, table3
from repro.bench.configs import scale_by_name
from repro.campaign.log import CampaignLog, read_records, result_records
from repro.core.contracts import sandboxing

#: Default location of the explorer-throughput record (repository root;
#: regenerated by ``benchmarks/test_explorer_throughput.py``).
EXPLORER_BENCH = Path(__file__).resolve().parents[3] / "BENCH_explorer.json"


def _format_bytes(count: int) -> str:
    """Human size that stays legible for smoke-scale visited sets."""
    if count >= 1 << 20:
        return f"{count / (1 << 20):.1f}MiB"
    return f"{count / (1 << 10):.1f}KiB"


def format_explorer_bench(path: str | Path) -> str | None:
    """Render the state-engine throughput records, if the file exists.

    Returns ``None`` (and prints nothing upstream) when the file is
    missing or unreadable -- the report must not fail because a benchmark
    artifact was never generated on this checkout.
    """
    try:
        records = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(records, dict) or not records:
        return None
    lines = ["State-engine throughput (BENCH_explorer.json)"]
    for name, record in sorted(records.items()):
        try:
            if record.get("experiment") == "tracing-overhead":
                off = record["off"]
                lines.append(
                    f"  {name:18s} ROB-{record['cell']['size']}: "
                    f"{off['states_per_s']:.0f} states/s untraced, "
                    f"noop recorder {record['overhead_noop']:.3f}x, "
                    f"JSONL sink {record['overhead_jsonl']:.3f}x "
                    f"({record['states']} states, {record['kind']})"
                )
                continue
            cell = record["cell"]
            legacy = record["legacy"]
            engine = record["engine"]
            lines.append(
                f"  {name:18s} ROB-{cell['size']}: "
                f"{legacy['states_per_s']:.0f} -> {engine['states_per_s']:.0f} "
                f"states/s ({record['speedup']:.2f}x), visited "
                f"{_format_bytes(legacy['visited_bytes'])} -> "
                f"{_format_bytes(engine['visited_bytes'])} "
                f"({record['states']} states, {record['kind']})"
            )
        except (KeyError, TypeError):
            lines.append(f"  {name:18s} (unrecognized record)")
    return "\n".join(lines)


def _print_explorer_bench(path: str | Path) -> None:
    """Print the throughput section when the record file is present."""
    bench = format_explorer_bench(path)
    if bench:
        print(bench)
        print()


def render_from_log(path: str, explorer_bench: str | Path = EXPLORER_BENCH) -> int:
    """Re-render the campaign-covered tables from a JSONL result log."""
    try:
        records = result_records(read_records(path))
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # malformed JSONL
        print(f"not a campaign JSONL log: {path}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"no result records in {path}", file=sys.stderr)
        return 1
    experiments = {record["experiment"] for record in records}
    if table2.EXPERIMENT in experiments:
        print(table2.format_rows(table2.results_from_records(records)))
        print()
    if table3.EXPERIMENT in experiments:
        print(table3.format_rows(table3.results_from_records(records)))
        print()
    if fig2.EXPERIMENT in experiments:
        print(fig2.format_rows(fig2.results_from_records(records)))
        print()
    if ablation.EXPERIMENT in experiments:
        print(ablation.format_rows(ablation.results_from_records(records)))
        print()
    if boom_hunt.EXPERIMENT in experiments:
        for contract_name, steps in sorted(
            boom_hunt.steps_from_records(records).items()
        ):
            print(boom_hunt.format_rows(contract_name, steps))
            print()
    _print_explorer_bench(explorer_bench)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the full evaluation and print a consolidated report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default="quick",
        choices=("quick", "paper"),
        help="budget profile (see repro.bench.configs)",
    )
    parser.add_argument(
        "--skip",
        default="",
        help="comma-separated experiments to skip "
        "(table1,table2,table3,fig2,hunt,ablation)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the campaign-backed grids "
        "(default 1 = serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--log",
        default=None,
        help="write campaign results to this JSONL file",
    )
    parser.add_argument(
        "--from-log",
        default=None,
        help="re-render tables from a JSONL result log instead of running",
    )
    parser.add_argument(
        "--explorer-bench",
        default=str(EXPLORER_BENCH),
        help="state-engine throughput record to surface "
        "(default: BENCH_explorer.json at the repository root)",
    )
    args = parser.parse_args(argv)
    if args.from_log:
        return render_from_log(args.from_log, args.explorer_bench)
    scale = scale_by_name(args.scale)
    skip = set(filter(None, args.skip.split(",")))
    n_workers = None if args.workers == 0 else args.workers
    started = clock.monotonic()
    log_handle = open(args.log, "w", encoding="utf-8") if args.log else None
    log = CampaignLog(log_handle) if log_handle else None
    try:
        if "table1" not in skip:
            print(table1.format_rows(table1.run()))
            print()
        if "table2" not in skip:
            print(table2.format_rows(
                table2.run(scale, n_workers=n_workers, log=log)
            ))
            print()
        if "table3" not in skip:
            print(table3.format_rows(
                table3.run(scale, n_workers=n_workers, log=log)
            ))
            print()
        if "fig2" not in skip:
            print(fig2.format_rows(
                fig2.run(scale, n_workers=n_workers, log=log)
            ))
            print()
        if "hunt" not in skip:
            steps = boom_hunt.run(
                sandboxing(), scale, n_workers=n_workers, log=log,
            )
            print(boom_hunt.format_rows("sandboxing", steps))
            print()
        if "ablation" not in skip:
            print(ablation.format_rows(
                ablation.run(scale, n_workers=n_workers, log=log)
            ))
            print()
    finally:
        if log_handle:
            log_handle.close()
    _print_explorer_bench(args.explorer_bench)
    print(f"total evaluation time: {clock.monotonic() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
