"""Campaign scaling: root-sharded grids and sub-root-sharded proofs.

The paper's evaluation is a grid of independent verification tasks; the
campaign scheduler (``repro.campaign``) shards each cell into batches
of its secret-pair roots -- and, below the root, across the first cycle's
nondeterministic choices -- and fans everything over worker processes.
Two wall-clock records accumulate in ``BENCH_campaign.json`` at the
repository root:

- ``table2-grid``: the full model-checked Table-2 grid (shadow +
  baseline schemes, five designs), serial vs 4 workers at root-batch
  granularity (one shard per unit), and
- ``fig2-rob-subroot``: the dominant Fig. 2 ROB sweep cell -- a workload
  one root's subtree dominates, which root sharding cannot split --
  serial vs 4 workers with sub-root sharding forced on.

Asserted always: outcomes -- verdict, search statistics and
counterexamples -- are identical between the serial path and the
sharded campaign (the determinism contract); on the Table-2 grid also
the shard count and that the shards explored exactly the merged states
(no discarded work).  Asserted only on
multi-core runners: the parallel run completes in measurably less
wall-clock than the serial one (on a single-CPU container the process
pool can only add overhead, which the JSON records honestly).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from conftest import update_bench_record
from repro import obs
from repro.bench import fig2, table2
from repro.bench.runner import run_units
from repro.campaign import scheduler
from repro.campaign.scheduler import verify_sharded
from repro.core.verifier import verify

N_WORKERS = 4
BENCH_RECORD = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"


def test_campaign_scaling_table2_grid(scale):
    units = table2.units(scale)
    assert len(units) == 10  # 2 schemes x 5 designs

    started = time.monotonic()
    serial = run_units(units, n_workers=1, experiment=table2.EXPERIMENT)
    serial_s = time.monotonic() - started

    with obs.tracing() as recorder:
        started = time.monotonic()
        parallel = run_units(
            units, n_workers=N_WORKERS, experiment=table2.EXPERIMENT
        )
        parallel_s = time.monotonic() - started
    telemetry = scheduler.LAST_TELEMETRY

    cells = {}
    for unit in units:
        ser, par = serial[unit.key], parallel[unit.key]
        assert par.kind == ser.kind, unit.key
        assert par.stats == ser.stats, unit.key
        assert par.counterexample == ser.counterexample, unit.key
        cells["/".join(unit.key)] = ser.kind

    # Host-independent scaling facts: every unit ships as one root batch
    # (10 units fill 2x capacity), and no shard's work is discarded --
    # the states the shards explored are exactly the merged states.
    assert telemetry.shards == len(units)
    explored = sum(
        dict(event.attrs).get("states", 0)
        for event in recorder.events
        if event.name == "shard.done"
    )
    merged = sum(outcome.stats.states for outcome in parallel.values())
    assert explored == merged

    record = {
        "experiment": "table2-grid",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "n_workers": N_WORKERS,
        "oversubscribed": N_WORKERS > (os.cpu_count() or 1),
        "n_units": len(units),
        "n_shards": telemetry.shards,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        "cells": cells,
    }
    update_bench_record(BENCH_RECORD, "table2-grid", record)
    print()
    print(
        f"campaign scaling: serial {serial_s:.2f}s vs {N_WORKERS}-worker "
        f"{parallel_s:.2f}s on {record['cpu_count']} CPUs "
        f"({record['n_shards']} shards) -> {BENCH_RECORD.name}"
    )

    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s, (
            f"{N_WORKERS}-worker campaign ({parallel_s:.2f}s) not faster "
            f"than serial ({serial_s:.2f}s) on a "
            f"{os.cpu_count()}-CPU runner"
        )


def test_subroot_sharding_dominant_rob_cell(scale):
    """Serial vs sub-root-sharded wall-clock on the Fig. 2 ROB cell that
    dominates the sweep (panel a, largest committed ROB size)."""
    panel = fig2.PANELS[0]
    size = fig2.ROB_SIZES[-1]
    task = fig2.point_task(panel, "rob", size, scale)
    n_roots = len(task.build_roots())

    started = time.monotonic()
    serial = verify(task)
    serial_s = time.monotonic() - started

    started = time.monotonic()
    sharded = verify_sharded(task, n_workers=N_WORKERS, subroot="always")
    sharded_s = time.monotonic() - started

    assert sharded.kind == serial.kind
    assert sharded.stats == serial.stats
    assert sharded.counterexample == serial.counterexample

    record = {
        "experiment": "fig2-rob-subroot",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "n_workers": N_WORKERS,
        "oversubscribed": N_WORKERS > (os.cpu_count() or 1),
        "panel": panel.key,
        "rob_size": size,
        "n_roots": n_roots,
        "kind": serial.kind,
        "states": serial.stats.states,
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "speedup": round(serial_s / sharded_s, 3),
    }
    update_bench_record(BENCH_RECORD, "fig2-rob-subroot", record)
    print()
    print(
        f"sub-root sharding: ROB-{size} cell serial {serial_s:.2f}s vs "
        f"{N_WORKERS}-worker {sharded_s:.2f}s on {record['cpu_count']} CPUs "
        f"({n_roots} roots) -> {BENCH_RECORD.name}"
    )

    # Unlike the 72-shard table2 grid, this cell splits into only ~7
    # first-cycle shards of very uneven size, so the parallel margin is
    # thin even on multi-core runners; assert the sharding is not
    # pathologically slower rather than strictly faster (the JSON above
    # records the honest ratio either way).
    if (os.cpu_count() or 1) >= 2:
        assert sharded_s < serial_s * 1.25, (
            f"sub-root-sharded cell ({sharded_s:.2f}s) much slower than "
            f"serial ({serial_s:.2f}s) on a {os.cpu_count()}-CPU runner"
        )

