"""Fuzz campaign CLI: ``python -m repro.fuzz [--units PRESET] ...``.

Runs one contract-guided random-testing campaign and prints the merged
report.  Three presets are built in (see :mod:`repro.fuzz.configs`):

- ``fuzz-mini`` (default): the insecure SimpleOoO mini config with the
  planted Spectre-v1-style leak -- the fixed-seed run must find it and
  delta-debug it to a minimal snippet,
- ``fuzz-defended``: the Delay-spectre defended control (must stay
  clean), and
- ``fuzz-boom``: the BoomLike core's misalignment/illegal sources.

``--workers`` picks the executor as in the verification campaign CLI
(one worker inline, more in a process pool, 0 one per CPU), but the
defaults differ: this CLI defaults to 1 worker, ``python -m
repro.campaign`` to one per CPU.  Reports are bit-identical across
worker counts for a fixed ``--seed``, which the CI fuzz smoke job
checks by diffing canonical ``--log`` JSONL between a 1-worker and a
4-worker run.

Exit status: 0 when the preset's expectation holds (leak found and
minimized for ``fuzz-mini``/``fuzz-boom``, no leak for
``fuzz-defended``), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.cli import add_trace_argument, trace_to
from repro.campaign.log import CampaignLog
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import FUZZ_PRESETS, preset_config
from repro.isa.program import Program


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--units", default="fuzz-mini", choices=FUZZ_PRESETS,
        help="which built-in fuzz preset to run (default: fuzz-mini)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed (default: the preset's committed smoke seed)",
    )
    parser.add_argument(
        "--batches", type=int, default=None,
        help="parallel batches per round (default: preset)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="programs per batch (default: preset)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="maximum coverage-feedback rounds (default: preset)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (0: one per CPU; default 1 = run inline)",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="shared campaign wall-clock budget in seconds",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip delta-debugging the found leak",
    )
    parser.add_argument(
        "--log", default=None, help="write a JSONL result log to this path"
    )
    add_trace_argument(parser)
    args = parser.parse_args(argv)
    preset = preset_config(args.units, args.seed)
    # ``--workers 0`` keeps the campaign CLI's meaning: one per CPU.
    n_workers = args.workers or None

    def _run(log):
        return run_fuzz(
            preset.config,
            n_batches=(
                args.batches if args.batches is not None else preset.n_batches
            ),
            batch_size=(
                args.batch_size
                if args.batch_size is not None
                else preset.batch_size
            ),
            max_rounds=(
                args.rounds if args.rounds is not None else preset.max_rounds
            ),
            minimize=not args.no_minimize,
            n_workers=n_workers,
            budget_s=args.budget,
            log=log,
            experiment=preset.name,
        )

    with trace_to(args.trace):
        if args.log:
            with open(args.log, "w", encoding="utf-8") as handle:
                report = _run(CampaignLog(handle))
        else:
            report = _run(None)
    print(f"{preset.name}: {report.summary()}")
    if report.leak is not None:
        print("leaking program (as found):")
        print(Program(report.leak.program).listing())
        if report.minimized is not None:
            print("minimized snippet:")
            print(Program(report.minimized.program).listing())
            print(report.minimized.counterexample.describe())
    if not preset.expectation_met(report.found_leak):
        print(
            f"ERROR: expected {preset.expect} for {preset.name}",
            file=sys.stderr,
        )
        return 1
    if report.found_leak and not args.no_minimize:
        # "Found" is only half the preset's promise: the leak must also
        # delta-debug to a completed, bound-respecting snippet.
        minimized = report.minimized
        if (
            minimized is None
            or minimized.truncated
            or minimized.length > preset.max_minimized
        ):
            state = (
                "missing" if minimized is None
                else "truncated" if minimized.truncated
                else f"{minimized.length} insts > {preset.max_minimized}"
            )
            print(
                f"ERROR: minimization failed for {preset.name}: {state}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
