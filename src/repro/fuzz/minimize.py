"""Distributed delta-debugging minimization of leaking programs.

A random leak is rarely minimal: the trial that found it carries filler
instructions the leak does not need.  This module shrinks the program
with ddmin-style delta debugging, under two invariants (documented in
EXPERIMENTS.md and relied on by the tests):

1. **Every accepted reduction is re-validated by the oracle.**  A
   candidate is a *deletion* of instruction slots; deletion shifts pcs
   and branch targets, so a candidate is never assumed to behave like
   its parent -- it is accepted only if one concrete re-execution
   (:class:`repro.fuzz.work.MinimizeProbe`) under the *same* predictor
   seed and secret pair still fires the leakage assertion.  The output
   is therefore a genuine leaking program with its own replay-complete
   counterexample, not a syntactic residue.
2. **The result is 1-minimal.**  After the chunked ddmin waves, a
   polish loop retries every single-instruction deletion until none
   leaks: removing any one instruction from the reported snippet
   destroys the leak.  The one exception is a campaign budget expiring
   mid-minimization: the result is then still a validated leak but is
   flagged ``MinimizedLeak.truncated`` and claims no minimality.

Distribution: each ddmin wave's candidates are independent probes, so
they fan out over the campaign executor as
:class:`repro.campaign.executor.WorkItem` payloads.  Determinism does
not depend on completion order -- the wave gathers *all* probe results
and accepts the leaking candidate with the smallest index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.campaign.executor import Executor, WorkItem
from repro.fuzz.work import FuzzConfig, FuzzLeak, MinimizeProbe, ProbeResult
from repro.isa.instruction import HALT, Instruction
from repro.mc.explorer import SearchLimits
from repro.mc.result import Counterexample


@dataclass(frozen=True)
class MinimizedLeak:
    """The end product of minimization: a minimal Spectre-style snippet.

    ``truncated`` is ``True`` when the campaign budget expired before
    the ddmin loop could finish: the program still leaks (only ever
    replaced by oracle-validated reductions) but 1-minimality is *not*
    established -- reports and logs must say so.
    """

    program: tuple[Instruction, ...]
    counterexample: Counterexample
    cycles: int
    probes: int  # oracle re-executions spent
    original_length: int
    truncated: bool = False

    @property
    def length(self) -> int:
        return len(self.program)


def _run_wave(
    executor: Executor,
    config: FuzzConfig,
    leak: FuzzLeak,
    candidates: list[tuple[Instruction, ...]],
    limits: SearchLimits,
) -> tuple[list[ProbeResult], bool, int]:
    """Probe every candidate (in parallel); results in candidate order.

    Returns ``(results, truncated, ran)``: ``truncated`` reports a
    probe cut off by the campaign budget (it comes back as a timeout
    outcome, not a verdict -- treating it as "no leak" would let the
    caller declare 1-minimality it never established) and ``ran``
    counts the probes that actually executed, so accounting never
    includes synthesized placeholders.
    """
    items = [
        WorkItem(
            fuzz=MinimizeProbe(
                config=config,
                index=index,
                program=program,
                dmem_pair=leak.dmem_pair,
                root_label=leak.root_label,
                pred_seed=leak.pred_seed,
                limits=limits,
            )
        )
        for index, program in enumerate(candidates)
    ]
    outcomes = executor.gather(items, label="minimization probe")
    results: list[ProbeResult] = []
    ran = 0
    truncated = False
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, ProbeResult):
            results.append(outcome)
            ran += 1
        else:  # budget-synthesized timeout: the probe never ran
            truncated = True
            results.append(ProbeResult(index, False, 0, None))
    return results, truncated, ran


def _deletions(
    program: tuple[Instruction, ...], chunk: int
) -> list[tuple[Instruction, ...]]:
    """Candidate programs with one ``chunk``-sized slice deleted each."""
    candidates = []
    for start in range(0, len(program), chunk):
        candidate = program[:start] + program[start + chunk :]
        if candidate:
            candidates.append(candidate)
    return candidates


def minimize_leak(
    config: FuzzConfig,
    leak: FuzzLeak,
    executor: Executor,
    *,
    limits: SearchLimits | None = None,
) -> MinimizedLeak:
    """Shrink a leaking program to a 1-minimal snippet (see module docs).

    The returned counterexample belongs to the *minimized* program's own
    validating execution, so it replays through :mod:`repro.mc.replay`
    as-is.  ``limits`` (usually the campaign deadline) is stamped on
    every probe.
    """
    limits = limits if limits is not None else SearchLimits()
    # Trailing HALTs never execute architecturally and padding slots are
    # implicit (fetch past the image reads HALT): drop them first.
    current = tuple(leak.program)
    while current and current[-1] == HALT:
        current = current[:-1]
    if not current:
        current = tuple(leak.program)
    best_cex = leak.counterexample
    best_cycles = leak.cycles
    probes = 0
    truncated = False
    chunk = max(1, len(current) // 2)
    while True:
        candidates = _deletions(current, chunk)
        if not candidates:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
            continue
        results, cut, ran = _run_wave(executor, config, leak, candidates, limits)
        probes += ran  # only oracle executions that actually happened
        if cut:
            # The budget expired mid-wave: the current program is still
            # a validated leak, but no further reduction (and no
            # 1-minimality claim) can be made honestly.
            truncated = True
            break
        accepted = next((r for r in results if r.leaked), None)
        if accepted is not None:
            current = candidates[accepted.index]
            best_cex = accepted.counterexample
            best_cycles = accepted.cycles
            chunk = max(1, min(chunk, len(current) // 2 or 1))
            continue
        if chunk == 1:
            break  # no single deletion leaks: 1-minimal
        chunk = max(1, chunk // 2)
    return MinimizedLeak(
        program=current,
        counterexample=best_cex,
        cycles=best_cycles,
        probes=probes,
        original_length=len(leak.program),
        truncated=truncated,
    )


def minimized_env(minimized: MinimizedLeak) -> Counterexample:
    """The minimized counterexample, environment cropped to the snippet.

    The probe's environment models the full instruction memory; for
    reporting, crop the image to the snippet length (the remaining
    slots read as ``HALT`` either way).
    """
    cex = minimized.counterexample
    env = cex.env
    imem = env.imem[: max(len(minimized.program), 1)]
    from repro.mc.env import Environment

    return replace(cex, env=Environment(imem=imem, preds=env.preds))
