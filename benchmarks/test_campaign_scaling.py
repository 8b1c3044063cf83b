"""Campaign scaling: the root-sharded Table-2 grid.

The paper's evaluation is a grid of independent verification tasks; the
campaign scheduler (``repro.campaign``) shards each cell into batches
of its secret-pair roots and fans them over worker processes.  One
wall-clock record accumulates in ``.bench/BENCH_campaign.json`` (the
committed root copy is the perf gate's baseline): ``table2-grid``, the
full model-checked Table-2 grid (shadow + baseline schemes, five
designs), serial vs 4 workers at root-batch granularity (one shard per
unit).

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

from conftest import BENCH_OUT, update_bench_record
from repro import obs
from repro.bench import table2
from repro.bench.runner import run_units
from repro.campaign import scheduler

N_WORKERS = 4
BENCH_RECORD = BENCH_OUT / "BENCH_campaign.json"


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
        f"({record['n_shards']} shards) -> .bench/{BENCH_RECORD.name}"
    )

    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s, (
            f"{N_WORKERS}-worker campaign ({parallel_s:.2f}s) not faster "
            f"than serial ({serial_s:.2f}s) on a "
            f"{os.cpu_count()}-CPU runner"
        )
