"""Mini-campaign CLI: ``python -m repro.campaign [--units G] [--workers N]``.

Runs a seconds-scale campaign and prints the merged outcomes.  Three unit
grids are built in:

- ``mini`` (default): two SimpleOoO cells -- one attack (insecure core)
  and one proof (Delay-spectre defense),
- ``fig2-mini``: both Fig. 2 panels' sweeps cut to their smallest sizes
  (includes a single-root point, the sub-root scheduler's target), and
- ``ablation-mini``: the fetch-gate ablation's attack and plain-proof
  workloads, gated and ungated.

The fuzz presets (``fuzz-mini``, ``fuzz-defended``, ``fuzz-boom``) are
accepted too and delegate to the random-testing CLI
(``python -m repro.fuzz``) with the backend/log/budget flags forwarded,
so one entry point drives both verification modes.

``--backend`` selects the executor (``serial`` / ``process``).

CI runs each grid twice, with ``--workers 1`` and ``--workers 4
--subroot always``, and diffs the canonical JSONL logs: any pickling
break, nondeterministic merge (root-, sub-root- or steal-granular),
backend divergence or scheme regression fails the smoke job within
minutes instead of surfacing in the ten-minute benchmark suite.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import ablation, fig2
from repro.bench.configs import QUICK
from repro.campaign.cli import (
    add_backend_arguments,
    add_status_arguments,
    add_trace_argument,
    append_history,
    trace_to,
)
from repro.campaign.log import CampaignLog
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import (
    SUBROOT_MODES,
    CampaignUnit,
    run_campaign,
)
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask
from repro.isa.encoding import space_tiny
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.uarch.config import Defense

MINI_PARAMS = MachineParams(imem_size=3)


def mini_units(timeout_s: float = 60.0) -> list[CampaignUnit]:
    """The two-cell smoke grid: one expected attack, one expected proof."""
    units = []
    for label, defense in (
        ("insecure", Defense.NONE),
        ("delay-spectre", Defense.DELAY_SPECTRE),
    ):
        units.append(
            CampaignUnit(
                experiment="mini",
                key=("shadow", label),
                task=VerificationTask(
                    core_factory=core_spec(
                        "simple_ooo", defense=defense, params=MINI_PARAMS
                    ),
                    contract=sandboxing(),
                    space=space_tiny(),
                    limits=SearchLimits(timeout_s=timeout_s),
                ),
            )
        )
    return units


def fig2_mini_units() -> list[CampaignUnit]:
    """Both Fig. 2 panels at the smallest sweep sizes (seconds-scale)."""
    return fig2.units(
        QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2,)
    )


def ablation_mini_units() -> list[CampaignUnit]:
    """The gate ablation minus its drain-heavy workload (seconds-scale)."""
    return ablation.units(QUICK, workloads=ablation.WORKLOADS[:2])


#: Grid name -> (unit builder, expected verdict by unit key).
GRIDS = {
    "mini": (
        mini_units,
        lambda key: {"insecure": "attack", "delay-spectre": "proved"}[key[-1]],
    ),
    "fig2-mini": (fig2_mini_units, lambda key: "proved"),
    "ablation-mini": (
        ablation_mini_units,
        lambda key: {"attack": "attack", "proof": "proved"}[key[0]],
    ),
}


def main(argv: list[str] | None = None) -> int:
    from repro.fuzz.configs import FUZZ_PRESETS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--units", default="mini",
        choices=sorted(GRIDS) + sorted(FUZZ_PRESETS),
        help="which built-in unit grid to run (default: mini); fuzz-* "
        "presets delegate to python -m repro.fuzz",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default/0: one per CPU; 1 = serial path)",
    )
    parser.add_argument(
        "--subroot", default="auto", choices=SUBROOT_MODES,
        help="shard granularity below the root (default: auto)",
    )
    parser.add_argument(
        "--log", default=None, help="write a JSONL result log to this path"
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="shared campaign wall-clock budget in seconds",
    )
    add_backend_arguments(parser)
    add_trace_argument(parser)
    add_status_arguments(parser)
    args = parser.parse_args(argv)
    if args.units in FUZZ_PRESETS:
        # Random-testing grids run through the fuzz driver: forward the
        # shared flags (the fuzz CLI owns its own campaign knobs).
        from repro.fuzz.__main__ import main as fuzz_main

        forwarded = ["--units", args.units]
        if args.workers is not None:
            forwarded += ["--workers", str(args.workers)]
        if args.log:
            forwarded += ["--log", args.log]
        if args.budget is not None:
            forwarded += ["--budget", str(args.budget)]
        if args.backend:
            forwarded += ["--backend", args.backend]
        if args.trace:
            forwarded += ["--trace", args.trace]
        if args.status_json:
            forwarded += ["--status-json", args.status_json]
        if args.history:
            forwarded += ["--history", args.history]
        return fuzz_main(forwarded)
    build_units, expected = GRIDS[args.units]
    units = build_units()
    n_workers = None if args.workers == 0 else args.workers

    def _run(log):
        return run_campaign(
            units,
            n_workers=n_workers,
            budget_s=args.budget,
            log=log,
            experiment=args.units,
            subroot=args.subroot,
            backend=args.backend,
            status_json=args.status_json,
        )

    from repro.obs import clock

    wall_t0 = clock.monotonic()
    with trace_to(args.trace):
        if args.log:
            with open(args.log, "w", encoding="utf-8") as handle:
                results = _run(CampaignLog(handle))
        else:
            results = _run(None)
    wall_s = clock.monotonic() - wall_t0
    telemetry = results[0].telemetry if results else None
    verdicts: dict = {}
    states = 0
    for result in results:
        verdicts[result.outcome.kind] = verdicts.get(result.outcome.kind, 0) + 1
        states += result.outcome.stats.states
    append_history(
        args.history,
        desc={
            "cli": "campaign",
            "units": args.units,
            "subroot": args.subroot,
            "backend": telemetry.backend if telemetry else "",
            "workers": telemetry.capacity if telemetry else 0,
        },
        experiment=args.units,
        backend=telemetry.backend if telemetry else "",
        capacity=telemetry.capacity if telemetry else 0,
        units=len(results),
        verdicts=verdicts,
        wall_s=wall_s,
        states=states,
    )
    failures = 0
    for result in results:
        print(f"{'/'.join(result.key):24s} {result.outcome.summary()}")
        want = expected(result.key)
        if result.outcome.kind != want:
            print(f"  ERROR: expected {want}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
