"""Explorer throughput: the state-engine microbenchmark.

Measures serial states/sec and visited-set memory of the overhauled
state engine against the frozen pre-overhaul engine
(:mod:`repro.mc.legacy`) on Fig. 2 ROB sweep cells -- the workload whose
single dominant subtree made the hot path worth overhauling.  Both
engines run the *same* task in the same process; verdicts and
``SearchStats`` are asserted bit-identical, so the ratio isolates pure
state-handling cost (interning, restore discipline, choice enumeration),
not search-order luck.

Results accumulate as named records in ``BENCH_explorer.json`` at the
repository root (regeneration recipe in EXPERIMENTS.md;
``repro.bench.report`` surfaces the numbers).  Modes, via
``REPRO_EXPLORER_BENCH``:

- ``smoke``: the ROB-2 cell only -- seconds, used by the CI smoke job
  (records under a ``-smoke`` suffix so committed full-mode numbers
  survive);
- default: the ROB-4 cell;
- ``full``: ROB-4 and ROB-8 (the committed BENCH_explorer.json numbers).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import update_bench_record
from repro.bench import fig2
from repro.core.verifier import verify
from repro.mc.explorer import Explorer
from repro.mc.legacy import LegacyExplorer

BENCH_RECORD = Path(__file__).resolve().parents[1] / "BENCH_explorer.json"

_MODE = os.environ.get("REPRO_EXPLORER_BENCH", "")
if _MODE == "smoke":
    ROB_SIZES = (2,)
    _SUFFIX = "-smoke"
elif _MODE == "full":
    ROB_SIZES = (4, 8)
    _SUFFIX = ""
else:
    ROB_SIZES = (4,)
    _SUFFIX = ""


def _measure(engine_cls, task):
    """One timed serial run; returns (outcome, elapsed, visited footprint,
    resolved engine mode)."""
    explorer = engine_cls(
        task.build_product(), task.space, task.build_roots(), task.limits
    )
    started = time.monotonic()
    outcome = explorer.run()
    elapsed = time.monotonic() - started
    keys, visited_bytes = explorer.visited_footprint()
    return outcome, elapsed, keys, visited_bytes, getattr(
        explorer, "engine", "object"
    )


@pytest.mark.parametrize("rob_size", ROB_SIZES)
def test_explorer_throughput_fig2_rob_cell(scale, rob_size):
    task = fig2.point_task(fig2.PANELS[0], "rob", rob_size, scale)

    legacy_outcome, legacy_s, legacy_keys, legacy_bytes, _ = _measure(
        LegacyExplorer, task
    )
    engine_outcome, engine_s, engine_keys, engine_bytes, engine_mode = (
        _measure(Explorer, task)
    )

    # The equivalence contract, re-asserted where the ratio is measured.
    assert engine_outcome.kind == legacy_outcome.kind
    assert engine_outcome.stats == legacy_outcome.stats
    assert engine_outcome.counterexample == legacy_outcome.counterexample
    # The engine frees each root's visited keys once it moves on, so it
    # ends holding only the last-explored root's (root 0's) partition.
    last_root = replace(task, roots=task.build_roots()[:1])
    assert engine_keys == verify(last_root).stats.states

    states = engine_outcome.stats.states
    speedup = legacy_s / engine_s
    record = {
        "experiment": "explorer-throughput",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "cell": {"panel": fig2.PANELS[0].key, "structure": "rob", "size": rob_size},
        "kind": engine_outcome.kind,
        "states": states,
        "engine_mode": engine_mode,
        "legacy": {
            "elapsed_s": round(legacy_s, 3),
            "states_per_s": round(states / legacy_s, 1),
            "visited_keys": legacy_keys,
            "visited_bytes": legacy_bytes,
        },
        "engine": {
            "elapsed_s": round(engine_s, 3),
            "states_per_s": round(states / engine_s, 1),
            "visited_keys": engine_keys,
            "visited_bytes": engine_bytes,
        },
        "speedup": round(speedup, 3),
        "visited_bytes_ratio": round(engine_bytes / legacy_bytes, 3),
    }
    update_bench_record(BENCH_RECORD, f"fig2-rob{rob_size}{_SUFFIX}", record)
    print()
    print(
        f"explorer throughput (ROB-{rob_size}): legacy "
        f"{record['legacy']['states_per_s']:.0f} st/s vs "
        f"{engine_mode} engine "
        f"{record['engine']['states_per_s']:.0f} st/s -> {speedup:.2f}x, "
        f"visited {legacy_bytes >> 10}KiB -> {engine_bytes >> 10}KiB "
        f"-> {BENCH_RECORD.name}"
    )

    # The ROB-2 smoke cell finishes in tens of milliseconds, where timer
    # noise swamps the ratio; the guard belongs to the real cells.
    if rob_size >= 4:
        assert speedup > 1.1, (
            f"state engine regressed: {speedup:.2f}x vs legacy on the "
            f"ROB-{rob_size} cell"
        )
        assert engine_bytes < legacy_bytes, (
            "interned visited set no longer smaller than deep-tuple keys"
        )


@pytest.mark.parametrize("rob_size", ROB_SIZES)
def test_tracing_overhead_fig2_rob_cell(scale, rob_size, tmp_path):
    """The observability cost ledger: off vs recorder vs JSONL export.

    Three legs of the same cell in one process: tracing off (the
    shipped default -- every instrumentation point is one ``is None``
    branch), a live in-memory recorder whose output is discarded
    (``noop``), and a live recorder exported through the JSONL sink
    (``jsonl``).  Verdicts and stats are asserted bit-identical across
    legs -- the "tracing on vs off is bit-identical" contract, measured
    where the overhead is -- and the ratios land in
    ``BENCH_explorer.json`` for the perf gate.
    """
    from repro import obs
    from repro.obs import sinks

    task = fig2.point_task(fig2.PANELS[0], "rob", rob_size, scale)

    obs.install(None)
    off = _measure(Explorer, task)
    with obs.tracing():
        noop = _measure(Explorer, task)
    with obs.tracing() as recorder:
        jsonl = _measure(Explorer, task)
    trace_records = sinks.write_jsonl(recorder, tmp_path / "trace.jsonl")

    off_outcome, off_s, off_keys, off_bytes, mode = off
    for label, leg in (("noop", noop), ("jsonl", jsonl)):
        outcome = leg[0]
        assert outcome.kind == off_outcome.kind, label
        assert outcome.stats == off_outcome.stats, label
        assert outcome.counterexample == off_outcome.counterexample, label
        assert leg[2] == off_keys, label

    states = off_outcome.stats.states

    def _leg(measured):
        _, elapsed, keys, visited_bytes, _ = measured
        return {
            "elapsed_s": round(elapsed, 3),
            "states_per_s": round(states / elapsed, 1),
            "visited_keys": keys,
            "visited_bytes": visited_bytes,
        }

    legs = {"off": _leg(off), "noop": _leg(noop), "jsonl": _leg(jsonl)}
    overhead_noop = legs["off"]["states_per_s"] / legs["noop"]["states_per_s"]
    overhead_jsonl = legs["off"]["states_per_s"] / legs["jsonl"]["states_per_s"]
    record = {
        "experiment": "tracing-overhead",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "cell": {"panel": fig2.PANELS[0].key, "structure": "rob", "size": rob_size},
        "kind": off_outcome.kind,
        "states": states,
        "engine_mode": mode,
        "off": legs["off"],
        "noop": legs["noop"],
        "jsonl": legs["jsonl"],
        "overhead_noop": round(overhead_noop, 3),
        "overhead_jsonl": round(overhead_jsonl, 3),
        "trace_records": trace_records,
    }
    update_bench_record(BENCH_RECORD, f"fig2-rob{rob_size}-tracing{_SUFFIX}", record)
    print()
    print(
        f"tracing overhead (ROB-{rob_size}): off "
        f"{legs['off']['states_per_s']:.0f} st/s, noop recorder "
        f"{overhead_noop:.3f}x, JSONL sink {overhead_jsonl:.3f}x "
        f"({trace_records} trace records) -> {BENCH_RECORD.name}"
    )

    # The smoke cell finishes in tens of milliseconds -- pure timer
    # noise; the real cells guard the near-zero-cost promise (generous
    # against frequency scaling between legs).
    if rob_size >= 4:
        assert overhead_jsonl < 1.25, (
            f"tracing overhead grew to {overhead_jsonl:.2f}x on the "
            f"ROB-{rob_size} cell"
        )


@pytest.mark.parametrize("rob_size", ROB_SIZES)
def test_engine_matrix_fig2_rob_cell(scale, rob_size, monkeypatch):
    """Vector-vs-packed-vs-object on one cell, same process, same task.

    Each engine is forced via ``REPRO_MC_ENGINE`` and re-verified
    bit-identical before its throughput is recorded -- so the committed
    ratios compare engines doing provably the same search.  The
    ``vector_vs_object`` ratio is the headline number the vectorization
    work is gated on (the ROADMAP's serial states/s goal).
    """
    pytest.importorskip("numpy")
    task = fig2.point_task(fig2.PANELS[0], "rob", rob_size, scale)

    legs = {}
    outcomes = {}
    for engine in ("object", "packed", "vector"):
        monkeypatch.setenv("REPRO_MC_ENGINE", engine)
        outcome, elapsed, keys, visited_bytes, mode = _measure(Explorer, task)
        assert mode == engine, f"{engine} did not resolve (got {mode})"
        outcomes[engine] = outcome
        legs[engine] = {
            "elapsed_s": round(elapsed, 3),
            "states_per_s": round(outcome.stats.states / elapsed, 1),
            "visited_keys": keys,
            "visited_bytes": visited_bytes,
        }
    # The equivalence contract, re-asserted where the ratios are measured.
    for engine in ("packed", "vector"):
        assert outcomes[engine].kind == outcomes["object"].kind
        assert outcomes[engine].stats == outcomes["object"].stats
        assert outcomes[engine].counterexample == outcomes["object"].counterexample

    monkeypatch.delenv("REPRO_MC_ENGINE")
    auto_mode = Explorer(
        task.build_product(), task.space, task.build_roots(), task.limits
    ).engine

    vec, obj, packed = (
        legs["vector"]["states_per_s"],
        legs["object"]["states_per_s"],
        legs["packed"]["states_per_s"],
    )
    record = {
        "experiment": "engine-matrix",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "cell": {"panel": fig2.PANELS[0].key, "structure": "rob", "size": rob_size},
        "kind": outcomes["vector"].kind,
        "states": outcomes["vector"].stats.states,
        "engine_mode": auto_mode,
        "engines": legs,
        "vector_vs_object": round(vec / obj, 3),
        "vector_vs_packed": round(vec / packed, 3),
    }
    update_bench_record(BENCH_RECORD, f"fig2-rob{rob_size}-engines{_SUFFIX}", record)
    print()
    print(
        f"engine matrix (ROB-{rob_size}): object {obj:.0f} / packed "
        f"{packed:.0f} / vector {vec:.0f} st/s -> vector "
        f"{vec / obj:.2f}x object, {vec / packed:.2f}x packed "
        f"-> {BENCH_RECORD.name}"
    )

    # The smoke cell is noise; the real cells guard the vectorization
    # floor.  ROB-4 legs finish in ~2 s each, so frequency scaling can
    # halve a single leg's ratio -- it gets a sanity floor only; the
    # dominant ROB-8 cell (504k states, ~30 s of measurement) carries
    # the committed 3x evidence and the hard guard.
    if rob_size >= 8:
        assert vec / obj > 2.0, (
            f"vector engine fell to {vec / obj:.2f}x object on ROB-{rob_size}"
        )
    elif rob_size >= 4:
        assert vec / obj > 1.2, (
            f"vector engine fell to {vec / obj:.2f}x object on ROB-{rob_size}"
        )
