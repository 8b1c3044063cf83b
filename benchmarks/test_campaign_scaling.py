"""Campaign scaling: root-sharded grids and sub-root-sharded proofs.

The paper's evaluation is a grid of independent verification tasks; the
campaign scheduler (``repro.campaign``) shards each cell into batches
of its secret-pair roots -- and, below the root, across the first cycle's
nondeterministic choices -- and fans everything over worker processes.
Four wall-clock records accumulate in ``BENCH_campaign.json`` at the
repository root:

- ``table2-grid``: the full model-checked Table-2 grid (shadow +
  baseline schemes, five designs), serial vs 4 workers at root-batch
  granularity (one shard per unit), and
- ``fig2-rob-subroot``: the dominant Fig. 2 ROB sweep cell -- a workload
  one root's subtree dominates, which root sharding cannot split --
  serial vs 4 workers with sub-root sharding forced on, and
- ``fig2-rob-shared-visited``: the same ROB cell under the *ordered*
  secret-pair quantifier (every root plus its orientation mirror):
  default serial search vs ``shared_visited``, whose mirror-canonical
  visited keys collapse each mirror root's subtree onto its partner's,
  and
- ``fig2-rob-socket``: the same dominant ROB cell dispatched through the
  multi-host ``SocketClusterBackend`` to two local
  ``python -m repro.campaign.worker`` agents over TCP -- the committed
  scaling point for the distributed backend (work-stealing rebalance
  on, steal/requeue telemetry recorded).

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
from dataclasses import replace
from pathlib import Path

from conftest import update_bench_record
from repro import obs
from repro.bench import fig2, table2
from repro.bench.runner import run_units
from repro.campaign import scheduler
from repro.campaign.scheduler import verify_sharded
from repro.core.secrets import with_mirrored_roots
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


def test_shared_visited_dominant_rob_cell(scale, monkeypatch):
    """Serial vs serial ``shared_visited`` wall-clock on the same
    dominant Fig. 2 ROB cell, quantified over *ordered* secret pairs
    (each root plus its orientation mirror -- Eq. (1) as written).

    A plain search pays for every mirror subtree from scratch;
    mirror-canonical visited keys collapse them, so shared mode must
    preserve the verdict while strictly reducing explored states -- and
    the wall-clock ratio is the honest measure of what cross-root proof
    sharing buys on a real sweep cell.  Both legs are pinned to the
    object engine: shared_visited is defined on object snapshots, and
    letting the plain leg auto-select a faster engine would turn this
    record into an engine comparison (the engine-matrix records in
    BENCH_explorer.json measure that) and hand the perf gate a metric
    that "regresses" whenever the vector engine improves."""
    monkeypatch.setenv("REPRO_MC_ENGINE", "object")
    panel = fig2.PANELS[0]
    size = fig2.ROB_SIZES[-1]
    base_task = fig2.point_task(panel, "rob", size, scale)
    roots = with_mirrored_roots(base_task.build_roots())
    task = replace(base_task, roots=roots)

    started = time.monotonic()
    serial = verify(task)
    serial_s = time.monotonic() - started

    started = time.monotonic()
    shared = verify(replace(task, shared_visited=True))
    shared_s = time.monotonic() - started

    assert shared.kind == serial.kind
    assert shared.stats.states < serial.stats.states

    record = {
        "experiment": "fig2-rob-shared-visited",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "panel": panel.key,
        "rob_size": size,
        "n_roots": len(roots),
        "kind": serial.kind,
        "serial_states": serial.stats.states,
        "shared_states": shared.stats.states,
        "serial_s": round(serial_s, 3),
        "shared_s": round(shared_s, 3),
        "speedup": round(serial_s / shared_s, 3),
        "states_saved": serial.stats.states - shared.stats.states,
    }
    update_bench_record(BENCH_RECORD, "fig2-rob-shared-visited", record)
    print()
    print(
        f"shared visited: ROB-{size} ordered-quantifier cell serial "
        f"{serial_s:.2f}s ({serial.stats.states} states) vs shared "
        f"{shared_s:.2f}s ({shared.stats.states} states) -> "
        f"{record['speedup']:.2f}x -> {BENCH_RECORD.name}"
    )


def test_socket_backend_dominant_rob_cell(scale):
    """Serial vs socket-cluster (2 worker agents over TCP) wall-clock on
    the dominant Fig. 2 ROB cell, sub-root sharding + rebalance on."""
    from repro.campaign import scheduler
    from repro.campaign.backends import SocketClusterBackend

    panel = fig2.PANELS[0]
    size = fig2.ROB_SIZES[-1]
    task = fig2.point_task(panel, "rob", size, scale)

    started = time.monotonic()
    serial = verify(task)
    serial_s = time.monotonic() - started

    backend = SocketClusterBackend()
    try:
        backend.spawn_local_workers(2)
        backend.wait_for_workers(2, timeout=60)
        started = time.monotonic()
        sharded = verify_sharded(task, subroot="always", backend=backend)
        sharded_s = time.monotonic() - started
        requeued = backend.requeued
    finally:
        backend.close()

    assert sharded.kind == serial.kind
    assert sharded.stats == serial.stats
    assert sharded.counterexample == serial.counterexample

    telemetry = scheduler.LAST_TELEMETRY
    record = {
        "experiment": "fig2-rob-socket",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "n_workers": 2,
        "oversubscribed": 2 > (os.cpu_count() or 1),
        "panel": panel.key,
        "rob_size": size,
        "kind": serial.kind,
        "states": serial.stats.states,
        "serial_s": round(serial_s, 3),
        "socket_s": round(sharded_s, 3),
        "speedup": round(serial_s / sharded_s, 3),
        "steals": telemetry.steals,
        "steals_won": telemetry.steal_won,
        "requeued": requeued,
    }
    update_bench_record(BENCH_RECORD, "fig2-rob-socket", record)
    print()
    print(
        f"socket backend: ROB-{size} cell serial {serial_s:.2f}s vs "
        f"2-agent cluster {sharded_s:.2f}s on {record['cpu_count']} CPUs "
        f"({telemetry.steals} steals) -> {BENCH_RECORD.name}"
    )

    # Same caveat as the sub-root record: ~7 uneven shards plus wire
    # overhead leave a thin margin; assert not-pathological, record the
    # honest ratio.
    if (os.cpu_count() or 1) >= 2:
        assert sharded_s < serial_s * 1.5, (
            f"socket-backed cell ({sharded_s:.2f}s) much slower than "
            f"serial ({serial_s:.2f}s) on a {os.cpu_count()}-CPU runner"
        )
