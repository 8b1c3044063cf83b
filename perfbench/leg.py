"""One benchmark leg: one workload at one worker count, in a fresh interpreter.

Run by ``perfbench/run.py``, one process per leg, so that process-global
state (the scheduler's batch-grain calibration, the per-process spec
cache, the last-campaign telemetry alias) never carries from one leg into
the next.  The leg writes one JSON object to ``--result``:

- ``setup_s``: from the parent's spawn instant (``--spawn-t``, a
  ``CLOCK_MONOTONIC`` reading, which is system-wide) to the first
  campaign call;
- ``wall_s``, ``cpu_s``, ``self_cpu_s``, ``child_cpu_s``: the workload
  call, CPU from ``RUSAGE_SELF`` + ``RUSAGE_CHILDREN`` deltas, so reaped
  pool workers count;
- ``rss_mb``: peak RSS of this process (``w1``) or of the largest reaped
  worker (``w2``);
- ``cells``/``elapsed``: canonical results and per-cell times;
- ``layers`` (``--trace layers``), ``campaign`` (``w2``) and
  ``explored_states`` (``--trace obs``) for the per-layer report.

Example: ``PYTHONPATH=src python3 perfbench/leg.py --workload
table2-grid --leg w1 --seed 1 --result cells.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--leg", choices=("w1", "w2"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-t", type=float, default=None)
    parser.add_argument("--trace", choices=("none", "layers", "obs"),
                        default="none")
    parser.add_argument("--then-w2", action="store_true",
                        help="after the leg, run the w2 leg in this same "
                        "process (the self-test's carry-over check)")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    spawn_t = time.monotonic() if args.spawn_t is None else args.spawn_t

    import workloads

    workload = workloads.build(args.workload, args.seed)
    n_workers = 1 if args.leg == "w1" else 2
    timer = None
    if args.trace == "layers":
        from layers import LayerTimer

        timer = LayerTimer()
        timer.install()
    trace_dir = os.path.dirname(os.path.abspath(args.result))
    record = {"workload": args.workload, "leg": args.leg, "seed": args.seed,
              "trace": args.trace}

    setup_s = time.monotonic() - spawn_t
    self0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    recorder = None
    if args.trace == "obs":
        from repro import obs

        with obs.tracing() as recorder:
            result = workload.run(n_workers)
    else:
        result = workload.run(n_workers)
    t1 = time.monotonic()
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    child_cpu = _cpu(resource.RUSAGE_CHILDREN) - child0
    if recorder is not None:
        # Explored states go through the JSONL sink, as a user reads them.
        from repro.obs import sinks

        path = os.path.join(trace_dir, f"trace-{os.getpid()}.jsonl")
        sinks.write_jsonl(recorder, path)
        record["explored_states"] = sum(
            r["attrs"].get("states", 0)
            for r in sinks.read_trace(path)
            if r["type"] == "event" and r["name"] == "shard.done"
        )
        os.unlink(path)
    if timer is not None:
        timer.uninstall()
        record["layers"] = timer.metrics()

    who = resource.RUSAGE_SELF if n_workers == 1 else resource.RUSAGE_CHILDREN
    record.update(
        setup_s=setup_s,
        wall_s=t1 - t0,
        cpu_s=self_cpu + child_cpu,
        self_cpu_s=self_cpu,
        child_cpu_s=child_cpu,
        rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        cells=workload.cells(result),
        elapsed=workload.elapsed(result),
        engines=workload.engines,
        root_shards=workload.root_shards,
        host={
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": _numpy_version(),
        },
    )
    # Both run_units and run_fuzz point this alias at their campaign's
    # telemetry, the campaign layer's public output.
    from repro.campaign import scheduler

    telemetry = scheduler.LAST_TELEMETRY
    if workload.kind == "fuzz":
        record["fuzz_cycles"] = sum(r.cycles for r in result.rounds)
    if n_workers > 1:
        record["campaign"] = {
            "backend": telemetry.backend,
            "capacity": telemetry.capacity,
            "shards": telemetry.shards,
            "steals": telemetry.steals,
            "steals_won": telemetry.steal_won,
        }
    if args.then_w2:
        # Same interpreter, calibrated scheduler: w2 must still merge to
        # the same results as a fresh w2 leg.
        record["then_w2_cells"] = workload.cells(workload.run(2))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
