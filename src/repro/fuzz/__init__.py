"""``repro.fuzz``: contract-guided random testing with trace oracles.

The explicit-state explorer (:mod:`repro.mc.explorer`) *proves* security
over a declared domain -- but exhaustive search caps out at small ROB and
program spaces.  This package is the complementary verification mode:
Revizor-style random testing against the same hardware-software
contracts, at scales enumeration cannot reach.

The pieces, and how they reuse the existing machinery:

- **Program generator** (:mod:`repro.fuzz.generator`): seeded, weighted
  sampling over an :class:`repro.isa.encoding.EncodingSpace`, biased
  toward speculation windows (branch-shadowed load chains -- the
  Spectre gadget skeleton) plus mutation operators steered by coverage.
- **Trace oracle** (:mod:`repro.fuzz.oracle`): one *concrete* two-run
  execution of the existing product (:class:`repro.core.products
  .ShadowProduct`) on a sampled (program, secret pair, predictor seed)
  triple.  The shadow logic's leakage assertion is the oracle: a trace
  it flags is exactly an ``ATTACK`` counterexample of the model checker
  on the same product -- near-zero new theory.  Each batch answers
  trials that repeat a trace it already ran from a trace memo keyed on
  the trace's fetch and predictor answers.
- **Coverage feedback** (:mod:`repro.fuzz.coverage`): per-trace keys
  derived from the :class:`repro.events.CycleOutput` stream (squashes
  via mispredict events, speculation-window entry, memory-bus
  addresses, commit bandwidth, exceptions); inputs that light up new
  keys seed the mutation corpus.
- **Campaign integration** (:mod:`repro.fuzz.work`,
  :mod:`repro.fuzz.campaign`): fuzz batches are picklable payloads of
  the campaign :class:`repro.campaign.executor.WorkItem`, run inline
  or in a process pool with a deterministic batch-order merge -- same
  seed, same report, at every worker count.
- **Minimization** (:mod:`repro.fuzz.minimize`): delta debugging over
  the leaking program, each reduction re-validated by the oracle,
  candidate probes fanned over the executor; the result is a 1-minimal
  Spectre-style snippet with a replayable
  :class:`repro.mc.result.Counterexample`.

``python -m repro.fuzz --units fuzz-mini`` runs the planted-leak smoke
campaign; see README.md for the quickstart and EXPERIMENTS.md for
the methodology (seeds, oracle soundness, minimization invariants).
"""

from repro.fuzz.campaign import FuzzReport, run_fuzz
from repro.fuzz.configs import FUZZ_PRESETS, preset_config
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generator import GeneratorConfig, generate_program, mutate_program
from repro.fuzz.minimize import MinimizedLeak, minimize_leak
from repro.fuzz.oracle import (
    TRACE_HUNG,
    TRACE_INVALID,
    TRACE_LEAK,
    TRACE_OK,
    TraceResult,
    run_trace,
)
from repro.fuzz.work import FuzzConfig, FuzzLeak, FuzzShard, FuzzShardResult, MinimizeProbe

__all__ = [
    "CoverageMap",
    "FUZZ_PRESETS",
    "FuzzConfig",
    "FuzzLeak",
    "FuzzReport",
    "FuzzShard",
    "FuzzShardResult",
    "GeneratorConfig",
    "MinimizeProbe",
    "MinimizedLeak",
    "TRACE_HUNG",
    "TRACE_INVALID",
    "TRACE_LEAK",
    "TRACE_OK",
    "TraceResult",
    "generate_program",
    "minimize_leak",
    "mutate_program",
    "preset_config",
    "run_fuzz",
    "run_trace",
]
