"""Benchmark of the paper's deliverables: one workload, serial and 2-worker.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-grid --seed 1 --seconds 55 \\
        --trace 0 [--out result.json]

Each repetition runs the serial leg (``w1``, ``n_workers=1``) and the
2-worker leg (``w2``, the implicit process pool) of the workload, each in
a fresh interpreter (``perfbench/leg.py``).  Repetitions continue while
another one is predicted to finish within ``--seconds``; every metric is
the median over repetitions.  A reference start-up is timed before every
leg, and ``setup_s`` is the median ratio of set-up to that reference.

``--trace 0`` prints every end-to-end metric (set-up, wall, CPU, attack
and proof seconds, peak RSS, the w2/w1 ratios, ``failed_frac``); the
result line carries the gated subset :data:`GATED`.  ``--trace 1`` runs one
untraced ``w1`` leg, one ``w1`` leg with the layer wrappers of
``perfbench/layers.py`` and one ``w2`` leg recording a ``repro.obs``
trace, and prints the per-layer metrics, the tracing overhead among them.

Every leg's results are checked: the expected verdicts, results equal to
the pinned ``perfbench/expected.json`` (grid workloads, and the fuzz
workload at its pinned seeds) and ``w2`` equal to ``w1``.  A mismatch
counts as a failed operation and the command exits
non-zero.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing is
written outside a temporary directory in the checkout, except the full
record to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 2

WORKLOADS = ("table2-grid", "fig2-sweep", "fuzz-defended")

#: The paper's verdicts: Table 2 proves Sodor and SimpleOoO-S under both
#: schemes and attacks the other three designs; Fig. 2 proves every point.
EXPECTED_KINDS = {
    "table2-grid": {
        f"{scheme}/{design}": "proved" if design in ("Sodor", "SimpleOoO-S")
        else "attack"
        for scheme in ("shadow", "baseline")
        for design in ("Sodor", "SimpleOoO-S", "SimpleOoO", "Ridecore", "BOOM")
    },
    "fig2-sweep": {
        f"{panel}/{structure}/{size}": "proved"
        for panel in ("a", "b")
        for structure, sizes in (("regfile", (2, 4, 8, 16)),
                                 ("dmem", (2, 4, 8)), ("rob", (2, 4, 8)))
        for size in sizes
    },
}

#: fuzz-defended: rounds x batches x programs per batch (perfbench/workloads.py).
FUZZ_PROGRAMS = 4 * 2 * 4096

#: End-to-end metrics in the result line (``BENCHMARK.json``).
GATED = ("setup_s", "cpu_s.w1", "speedup.w2", "cpu_cost.w2", "rss_mb.w1",
         "rss_mb.w2")

#: The reference start-up timed just before every leg: a bare interpreter
#: importing numpy and a fixed set of standard modules, the same kind of
#: work as the benchmark's set-up but none of the program's code.
REFERENCE_STARTUP = """\
import argparse, asyncio, dataclasses, decimal, email.parser, json, typing
import unittest, xml.dom.minidom
try:
    import numpy
except ImportError:
    pass
"""
#: Nominal seconds of the reference start-up; ``setup_s`` is the median
#: set-up / reference ratio in these units, so host-speed drift that
#: slows both start-ups alike cancels.
REFERENCE_STARTUP_S = 0.25

COUNTS = ("mc.states", "mc.transitions", "mc.vector.transitions",
          "campaign.shards", "campaign.steals", "campaign.steals_won",
          "fuzz.programs", "fuzz.cycles")


def unit(name: str) -> str:
    """The unit of a reported metric, from its name."""
    if name.startswith("rss_mb"):
        return "MB"
    if name == "mc.visited_bytes":
        return "bytes"
    if name.endswith(".calls") or name in COUNTS:
        return "count"
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    return "ratio"


class LegFailed(RuntimeError):
    """A leg process exited non-zero or wrote no result."""


def run_leg(tmp: Path, workload: str, leg: str, seed: int,
            trace: str = "none", then_w2: bool = False) -> dict:
    """Run one leg in a fresh interpreter and return its result record."""
    result = tmp / f"{workload}-{leg}-{trace}-{time.monotonic_ns()}.json"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_MC_ENGINE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE_STARTUP], env=env,
                   cwd=ROOT, check=True, timeout=60)
    reference_s = time.monotonic() - t0
    cmd = [sys.executable, str(HERE / "leg.py"), "--workload", workload,
           "--leg", leg, "--seed", str(seed), "--trace", trace,
           "--result", str(result)]
    if then_w2:
        cmd.append("--then-w2")
    cmd += ["--spawn-t", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0 or not result.exists():
        raise LegFailed(f"{workload} {leg} leg failed "
                        f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads(result.read_text())
    record["reference_s"] = reference_s
    result.unlink()
    return record


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_grid(workload: str, record: dict, expected: dict) -> list[str]:
    """Names of the cells of one leg that deviate from the pinned results."""
    cells = record["cells"]
    bad = []
    for key, kind in EXPECTED_KINDS[workload].items():
        cell = cells.get(key)
        if cell is None or cell["kind"] != kind or cell != expected.get(key):
            bad.append(key)
    return bad


def check_fuzz(record: dict, reference: dict) -> int:
    """Failed programs of one fuzz leg against the reference cells."""
    campaign = record["cells"]["campaign"]
    rounds = [c for k, c in record["cells"].items() if k != "campaign"]
    if (record["cells"] != reference
            or campaign["programs"] != FUZZ_PROGRAMS
            or any(r["truncated"] for r in rounds)):
        return FUZZ_PROGRAMS
    return sum(r["leaks"] for r in rounds)


def operations(workload: str) -> int:
    if workload == "fuzz-defended":
        return FUZZ_PROGRAMS
    return len(EXPECTED_KINDS[workload])


def failures(workload: str, seed: int, legs: list[dict],
             expected: dict) -> tuple[int, list[str]]:
    """(failed operations, messages) over every leg of a run."""
    failed, notes = 0, []
    if workload == "fuzz-defended":
        # Fuzz results depend on the seed: a pinned seed is checked
        # against expected.json, any other against the run's first w1 leg.
        reference = expected.get(str(seed), legs[0]["cells"])
        if str(seed) not in expected:
            print(f"note: seed {seed} is not pinned in expected.json; "
                  "fuzz legs are checked against the first w1 leg")
    for record in legs:
        if workload == "fuzz-defended":
            bad = check_fuzz(record, reference)
            if bad:
                notes.append(f"{record['leg']}/{record['trace']}: {bad} "
                             "programs leaked, truncated or differ from "
                             "the reference")
        else:
            keys = check_grid(workload, record, expected)
            bad = len(keys)
            if keys:
                notes.append(f"{record['leg']}/{record['trace']}: cells "
                             f"differ from expected.json: {keys}")
        failed += bad
    return failed, notes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def cell_time(workload: str, record: dict, kind: str) -> float:
    """Summed elapsed of the cells of one kind (no-leak rounds for fuzz)."""
    if workload == "fuzz-defended":
        return sum(record["elapsed"].values()) if kind == "proved" else 0.0
    return sum(t for key, t in record["elapsed"].items()
               if record["cells"][key]["kind"] == kind)


def end_to_end(workload: str, reps: list[tuple[dict, dict]]) -> dict:
    legs = [leg for pair in reps for leg in pair]

    def median(leg: int, fn) -> float:
        return statistics.median(fn(pair[leg]) for pair in reps)

    # The two legs of one repetition run back to back, so their ratios
    # cancel the slow host-speed drift that moves every absolute time.
    return {
        "setup_s": REFERENCE_STARTUP_S * statistics.median(
            leg["setup_s"] / leg["reference_s"] for leg in legs),
        "setup_wall_s": statistics.median(leg["setup_s"] for leg in legs),
        "attack_s.w1": median(0, lambda r: cell_time(workload, r, "attack")),
        "wall_s.w1": median(0, lambda r: r["wall_s"]),
        "wall_s.w2": median(1, lambda r: r["wall_s"]),
        "cpu_s.w1": median(0, lambda r: r["cpu_s"]),
        "cpu_s.w2": median(1, lambda r: r["cpu_s"]),
        "proof_s.w1": median(0, lambda r: cell_time(workload, r, "proved")),
        "rss_mb.w1": median(0, lambda r: r["rss_mb"]),
        "rss_mb.w2": median(1, lambda r: r["rss_mb"]),
        "speedup.w2": statistics.median(
            w1["wall_s"] / w2["wall_s"] for w1, w2 in reps),
        "cpu_cost.w2": statistics.median(
            w2["cpu_s"] / w1["cpu_s"] for w1, w2 in reps),
    }


def per_layer(workload: str, plain: dict, traced: dict, pool: dict) -> dict:
    """Per-layer metrics: ``traced`` w1 (layer wrappers), ``pool`` w2 (obs)."""
    out = dict(traced["layers"])
    footprint_s = out.pop("trace.footprint_s")
    # Every wrapped call below Explorer.run, plus the loop's own time.
    nested = ("uarch.step.s", "uarch.snapshot.s", "uarch.restore.s",
              "isa.step.s", "core.shadow.s", "core.step_cycle.self_s",
              "mc.search.self_s")
    out["mc.search.unaccounted_s"] = (
        out["mc.search.s"] - sum(out[name] for name in nested)
        if out["mc.search.s"] else 0.0
    )
    grid = workload != "fuzz-defended"
    cells = plain["cells"]
    merged_states = sum(c["stats"]["states"] for c in cells.values()) if grid else 0
    out["mc.states"] = merged_states
    out["mc.transitions"] = (
        sum(c["stats"]["transitions"] for c in cells.values()) if grid else 0
    )
    campaign = pool.get("campaign", {})
    out["campaign.shards"] = campaign.get("shards", 0)
    out["campaign.steals"] = campaign.get("steals", 0)
    out["campaign.steals_won"] = campaign.get("steals_won", 0)
    out["campaign.coordinator_cpu_s"] = pool["self_cpu_s"]
    out["campaign.worker_cpu_s"] = pool["child_cpu_s"]
    out["campaign.cpu_overhead"] = pool["cpu_s"] / plain["cpu_s"]
    out["campaign.explored_over_merged"] = (
        pool["explored_states"] / merged_states if merged_states else 0.0
    )
    out["campaign.parallel_efficiency"] = (
        plain["wall_s"] / (WORKERS * pool["wall_s"])
    )
    if grid:
        out["fuzz.programs"] = out["fuzz.cycles"] = 0
        out["fuzz.invalid_ratio"] = 0.0
    else:
        out["fuzz.programs"] = cells["campaign"]["programs"]
        out["fuzz.cycles"] = plain["fuzz_cycles"]
        invalid = sum(c["verdicts"].get("invalid", 0)
                      for k, c in cells.items() if k != "campaign")
        out["fuzz.invalid_ratio"] = invalid / out["fuzz.programs"]
    out["trace.overhead"] = (
        (traced["wall_s"] - footprint_s) / plain["wall_s"] - 1.0
    )
    out["attack_s.w1"] = cell_time(workload, plain, "attack")
    return out


# ----------------------------------------------------------------------
# Running legs
# ----------------------------------------------------------------------
def host_facts(record: dict) -> dict:
    facts = dict(record["host"])
    facts["workers"] = WORKERS
    facts["oversubscribed"] = WORKERS > (facts["nproc"] or 1)
    facts["engines"] = record["engines"]
    facts["root_shards"] = record["root_shards"]
    return facts


def measure(args, tmp: Path) -> tuple[list[dict], dict]:
    """Run the legs; returns (every leg record, metrics by name)."""
    if args.trace:
        plain = run_leg(tmp, args.workload, "w1", args.seed)
        traced = run_leg(tmp, args.workload, "w1", args.seed, "layers")
        pool = run_leg(tmp, args.workload, "w2", args.seed, "obs")
        return [plain, traced, pool], per_layer(args.workload, plain,
                                                traced, pool)
    reps: list[tuple[dict, dict]] = []
    started = time.monotonic()
    while True:
        reps.append((run_leg(tmp, args.workload, "w1", args.seed),
                     run_leg(tmp, args.workload, "w2", args.seed)))
        elapsed = time.monotonic() - started
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break  # another repetition would overrun the window
    return [leg for pair in reps for leg in pair], end_to_end(args.workload,
                                                              reps)


def self_test(args, tmp: Path) -> int:
    """w2 alone vs w2 after w1 in one interpreter: identical results."""
    alone = run_leg(tmp, args.workload, "w2", args.seed)
    after = run_leg(tmp, args.workload, "w1", args.seed, then_w2=True)
    same = alone["cells"] == after["then_w2_cells"] == after["cells"]
    print(f"self-test {args.workload}: w2 alone "
          f"{'==' if same else '!='} w2 after w1 in one process")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full result record (host facts, "
                        "every leg) as JSON to this path")
    parser.add_argument("--self-test", action="store_true",
                        help="check that w2 gives the same results alone "
                        "and after w1 in one interpreter")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            if args.self_test:
                return self_test(args, Path(tmp))
            legs, metrics = measure(args, Path(tmp))
        except (LegFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    failed, notes = failures(args.workload, args.seed, legs,
                             expected.get(args.workload, {}))
    attempted = operations(args.workload) * len(legs)
    facts = host_facts(legs[0])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(legs)} legs, host {json.dumps(facts, sort_keys=True)}")
    for note in notes:
        print(f"FAILED {note}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit(name)}")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6f} ratio")
    reported = metrics if args.trace else {n: metrics[n] for n in GATED}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "host": facts, "metrics": metrics,
            "attempted": attempted, "failed": failed, "notes": notes,
            "legs": legs,
        }, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in reported.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
