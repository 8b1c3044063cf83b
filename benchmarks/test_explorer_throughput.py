"""Explorer throughput: the state-engine microbenchmark.

Measures serial states/sec and visited-set memory of the overhauled
state engine against the frozen pre-overhaul engine
(:mod:`repro.mc.legacy`) on Fig. 2 ROB sweep cells -- the workload whose
single dominant subtree made the hot path worth overhauling.  Both
engines run the *same* task in the same process; verdicts and
``SearchStats`` are asserted bit-identical, so the ratio isolates pure
state-handling cost (memoized transitions, the visited table, choice
enumeration), not search-order luck.

Results accumulate as named records in ``.bench/BENCH_explorer.json``
(the committed root copy is the perf gate's baseline; regeneration
recipe in EXPERIMENTS.md;
``repro.bench.report`` surfaces the numbers).  Modes, via
``REPRO_EXPLORER_BENCH``:

- ``smoke``: the ROB-2 cell only -- seconds, used by the CI smoke job
  (records under a ``-smoke`` suffix, gated against the committed
  ``-smoke`` baselines);
- default: the ROB-4 cell;
- ``full``: ROB-4 and ROB-8 (the committed BENCH_explorer.json numbers).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace

import pytest

from conftest import BENCH_OUT, update_bench_record
from repro.bench import fig2
from repro.core.verifier import verify
from repro.mc.explorer import Explorer
from repro.mc.legacy import LegacyExplorer

BENCH_RECORD = BENCH_OUT / "BENCH_explorer.json"

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
        f"-> .bench/{BENCH_RECORD.name}"
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


#: Alternating off/noop/jsonl rounds of the tracing-overhead cell; each
#: leg's time is its median over the rounds, so one leg landing on a
#: busy moment of a shared host cannot fail (or pass) the test alone.
TRACING_ROUNDS = 3


@pytest.mark.parametrize("rob_size", ROB_SIZES)
def test_tracing_overhead_fig2_rob_cell(scale, rob_size, tmp_path):
    """The observability cost ledger: off vs recorder vs JSONL export.

    Three legs of the same cell in one process: tracing off (the
    shipped default -- every instrumentation point is one ``is None``
    branch), a live in-memory recorder whose output is discarded
    (``noop``), and a live recorder exported through the JSONL sink
    (``jsonl``).  The legs run in :data:`TRACING_ROUNDS` alternating
    rounds.  Verdicts and stats are asserted bit-identical on every
    leg -- the "tracing on vs off is bit-identical" contract, measured
    where the overhead is -- and the ratios of the median leg times land
    in ``BENCH_explorer.json`` for the perf gate.
    """
    from repro import obs
    from repro.obs import sinks

    task = fig2.point_task(fig2.PANELS[0], "rob", rob_size, scale)

    runs: dict[str, list] = {"off": [], "noop": [], "jsonl": []}
    for _ in range(TRACING_ROUNDS):
        obs.install(None)
        runs["off"].append(_measure(Explorer, task))
        with obs.tracing():
            runs["noop"].append(_measure(Explorer, task))
        with obs.tracing() as recorder:
            runs["jsonl"].append(_measure(Explorer, task))
        trace_records = sinks.write_jsonl(recorder, tmp_path / "trace.jsonl")

    off_outcome, _, off_keys, _, mode = runs["off"][0]
    for label, measured in runs.items():
        for outcome, _, keys, _, _ in measured:
            assert outcome.kind == off_outcome.kind, label
            assert outcome.stats == off_outcome.stats, label
            assert outcome.counterexample == off_outcome.counterexample, label
            assert keys == off_keys, label

    states = off_outcome.stats.states

    elapsed = {
        label: statistics.median(run[1] for run in measured)
        for label, measured in runs.items()
    }
    legs = {
        label: {
            "elapsed_s": round(elapsed[label], 3),
            "states_per_s": round(states / elapsed[label], 1),
            "visited_keys": measured[0][2],
            "visited_bytes": measured[0][3],
        }
        for label, measured in runs.items()
    }
    # Same states every leg, so off/leg states/s is leg/off elapsed: the
    # recorded overheads agree with the recorded states/s.
    overhead_noop = elapsed["noop"] / elapsed["off"]
    overhead_jsonl = elapsed["jsonl"] / elapsed["off"]
    record = {
        "experiment": "tracing-overhead",
        "scale": scale.name,
        "cpu_count": os.cpu_count(),
        "cell": {"panel": fig2.PANELS[0].key, "structure": "rob", "size": rob_size},
        "kind": off_outcome.kind,
        "states": states,
        "engine_mode": mode,
        "rounds": TRACING_ROUNDS,
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
        f"tracing overhead (ROB-{rob_size}, median of {TRACING_ROUNDS} "
        f"rounds): off {legs['off']['states_per_s']:.0f} st/s, noop "
        f"recorder {overhead_noop:.3f}x, JSONL sink {overhead_jsonl:.3f}x "
        f"({trace_records} trace records) -> .bench/{BENCH_RECORD.name}"
    )

    # The smoke cell finishes in tens of milliseconds -- pure timer
    # noise; the real cells guard the near-zero-cost promise (generous
    # against frequency scaling between legs).
    if rob_size >= 4:
        assert overhead_jsonl < 1.25, (
            f"tracing overhead grew to {overhead_jsonl:.2f}x (median of "
            f"{TRACING_ROUNDS} rounds) on the ROB-{rob_size} cell"
        )
