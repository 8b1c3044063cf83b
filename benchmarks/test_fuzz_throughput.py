"""Fuzzing throughput: programs/s and time-to-first-leak.

Two numbers characterize the random-testing mode the way states/s
characterizes the explorer:

- **oracle throughput** (programs per second): one serial
  :class:`repro.fuzz.work.FuzzShard` on the *defended* mini config
  (nothing leaks, so every trial runs to completion -- the honest
  denominator); ``cycles_per_s`` divides every trial's cycles, and
  ``oracle_runs``/``oracle_cycles``/``oracle_steps`` add the traces,
  cycles and machine steps the oracle ran (the shard's trace memo
  answers repeats), and
- **time-to-first-leak**: the committed-seed ``fuzz-mini`` campaign on
  the planted-leak config, wall-clock and trial count until the
  Spectre-v1 snippet is found and minimized.

Results accumulate as named records in ``.bench/BENCH_fuzz.json`` (the
committed root copy is the perf gate's baseline; regeneration recipe in
EXPERIMENTS.md).  Modes, via
``REPRO_FUZZ_BENCH``:

- ``smoke``: small batches, records under a ``-smoke`` suffix (the CI
  fuzz smoke job);
- default / ``full``: the committed BENCH_fuzz.json numbers.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_OUT, update_bench_record
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import preset_config
from repro.fuzz.work import FuzzShard

BENCH_RECORD = BENCH_OUT / "BENCH_fuzz.json"

_MODE = os.environ.get("REPRO_FUZZ_BENCH", "")
if _MODE == "smoke":
    THROUGHPUT_PROGRAMS = 512
    _SUFFIX = "-smoke"
else:
    THROUGHPUT_PROGRAMS = 4096
    _SUFFIX = ""


def test_fuzz_oracle_throughput():
    """Serial oracle throughput on the defended (leak-free) config."""
    preset = preset_config("fuzz-defended")
    shard = FuzzShard(
        config=preset.config,
        round_index=0,
        batch_index=0,
        n_programs=THROUGHPUT_PROGRAMS,
        stop_on_leak=False,
    )
    started = time.monotonic()
    result = shard.run()
    elapsed = time.monotonic() - started
    assert result.programs == THROUGHPUT_PROGRAMS
    assert result.verdict_count("leak") == 0, "defended config leaked"
    programs_per_s = result.programs / elapsed
    record = {
        "experiment": "fuzz-throughput",
        "cpu_count": os.cpu_count(),
        "config": preset.config.describe(),
        "programs": result.programs,
        "product_cycles": result.cycles,
        # The traces, cycles and machine steps the oracle ran: the
        # shard's trace memo answers repeated traces without stepping
        # the product.
        "oracle_runs": result.oracle_runs,
        "oracle_cycles": result.oracle_cycles,
        "oracle_steps": result.oracle_steps,
        "elapsed_s": round(elapsed, 3),
        "programs_per_s": round(programs_per_s, 1),
        "cycles_per_s": round(result.cycles / elapsed, 1),
        "verdicts": dict(result.verdicts),
        "coverage_keys": len(result.new_coverage),
    }
    update_bench_record(BENCH_RECORD, f"oracle-throughput{_SUFFIX}", record)
    print()
    print(
        f"fuzz oracle throughput: {programs_per_s:.0f} programs/s "
        f"({result.cycles / elapsed:.0f} product cycles/s, "
        f"{result.oracle_runs} oracle runs) "
        f"-> .bench/{BENCH_RECORD.name}"
    )
    assert programs_per_s > 50, "oracle throughput collapsed"


def test_fuzz_time_to_first_leak():
    """Committed-seed campaign on the planted-leak config, serial."""
    preset = preset_config("fuzz-mini")
    started = time.monotonic()
    report = run_fuzz(
        preset.config,
        n_batches=preset.n_batches,
        batch_size=preset.batch_size,
        max_rounds=preset.max_rounds,
    )
    elapsed = time.monotonic() - started
    assert report.found_leak, "planted leak not found from the fixed seed"
    assert report.minimized is not None
    assert report.minimized.length <= 8
    record = {
        "experiment": "fuzz-time-to-leak",
        "cpu_count": os.cpu_count(),
        "config": preset.config.describe(),
        # trials_to_leak counts the finding batch's trials up to and
        # including the leak; programs_total additionally includes the
        # sibling batches of the round (they run to completion so the
        # merge stays deterministic).
        "trials_to_leak": report.leak.trial_index + 1,
        "programs_total": report.programs,
        "found_at": list(report.leak.order),
        "leak_cycles": report.leak.cycles,
        "minimized_length": report.minimized.length,
        "minimize_probes": report.minimized.probes,
        "coverage_keys": len(report.coverage),
        "elapsed_s": round(elapsed, 3),
        "time_to_first_leak_s": round(report.elapsed, 3),
    }
    update_bench_record(BENCH_RECORD, f"time-to-first-leak{_SUFFIX}", record)
    print()
    print(
        f"fuzz time-to-first-leak: {report.elapsed:.3f}s, "
        f"{report.leak.trial_index + 1} trials to the leak "
        f"({report.programs} programs in the round), minimized to "
        f"{report.minimized.length} insts -> .bench/{BENCH_RECORD.name}"
    )
