"""The fuzz campaign driver: rounds of batches over the campaign executor.

One fuzz campaign is a sequence of *rounds*; each round fans
``n_batches`` :class:`repro.fuzz.work.FuzzShard` units over the executor
the worker count picks (:func:`repro.campaign.backends.make_executor`,
the same rule the verification campaigns use: one worker inline, more
in a process pool), then merges the batch results **in batch-index
order**:

- coverage keys union in order, the corpus extends in order (bounded),
- the reported leak is the serially-first one (smallest
  ``(round, batch, trial)``),

so the merged report is a pure function of the campaign seed -- the
same for every worker count, which the CI fuzz smoke job diffs
bit-for-bit between 1-worker and 4-worker runs.

Coverage feedback crosses rounds, not batches: every round's shards
ship the merged coverage snapshot and corpus of all *previous* rounds
(batches within a round are independent, so they stay embarrassingly
parallel), and mutation rates target the corpus those snapshots built.

When a round surfaces a leak the campaign stops (``stop_on_leak``) and
hands the winner to distributed delta debugging
(:func:`repro.fuzz.minimize.minimize_leak`) over the same executor.

Logs reuse the campaign JSONL machinery: one ``result`` record per
round plus one for the minimized leak, all replayable / diffable via
:func:`repro.campaign.log.canonical_lines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.obs import clock
from repro.campaign.backends import WorkItem, collect_results, make_executor
from repro.campaign.log import CampaignLog
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.minimize import MinimizedLeak, minimize_leak
from repro.fuzz.work import FuzzConfig, FuzzLeak, FuzzShard
from repro.mc.explorer import SearchLimits
from repro.mc.result import ATTACK, PROVED, TIMEOUT, Outcome, SearchStats

#: Corpus entries kept across rounds (oldest evicted first).
CORPUS_CAP = 64


@dataclass
class FuzzRound:
    """Merged accounting of one round (deterministic given the seed).

    ``oracle_runs``/``oracle_cycles`` are the traces and product cycles
    the round's shards actually stepped; ``programs``/``cycles`` count
    every trial, including those a shard's trace memo answered.
    """

    index: int
    programs: int = 0
    cycles: int = 0
    oracle_runs: int = 0
    oracle_cycles: int = 0
    verdicts: dict = field(default_factory=dict)
    new_coverage: int = 0
    truncated: bool = False
    leaks: int = 0
    elapsed: float = 0.0

    def outcome(self, leak: FuzzLeak | None) -> Outcome:
        """The round as a campaign-log outcome (fuzz stats mapped on).

        ``states`` carries programs executed, ``transitions`` total
        product cycles, ``pruned`` contract-invalid traces; per-verdict
        counts ride in ``prune_reasons``.  ``kind`` is ``attack`` when
        the round surfaced the campaign's leak, ``timeout`` when the
        budget truncated it, ``proved`` otherwise (meaning only "no
        leak found", never a proof -- see EXPERIMENTS.md).
        """
        kind = ATTACK if leak is not None else (
            TIMEOUT if self.truncated else PROVED
        )
        stats = SearchStats(
            states=self.programs,
            transitions=self.cycles,
            pruned=self.verdicts.get("invalid", 0),
            max_depth=0,
            prune_reasons={k: v for k, v in sorted(self.verdicts.items()) if v},
        )
        return Outcome(
            kind=kind,
            elapsed=self.elapsed,
            stats=stats,
            counterexample=None if leak is None else leak.counterexample,
            note="fuzz-round",
        )


@dataclass
class FuzzReport:
    """The merged result of one fuzz campaign."""

    config: FuzzConfig
    rounds: list[FuzzRound]
    coverage: CoverageMap
    corpus_size: int
    leak: FuzzLeak | None
    minimized: MinimizedLeak | None
    elapsed: float

    @property
    def programs(self) -> int:
        return sum(r.programs for r in self.rounds)

    @property
    def found_leak(self) -> bool:
        return self.leak is not None

    def summary(self) -> str:
        """One-line human summary."""
        oracle_runs = sum(r.oracle_runs for r in self.rounds)
        base = (
            f"{self.programs} programs in {oracle_runs} oracle runs / "
            f"{len(self.rounds)} rounds, "
            f"{len(self.coverage)} coverage keys, {self.elapsed:.2f}s"
        )
        if self.leak is None:
            return f"no leak found ({base})"
        spot = (
            f"round {self.leak.round_index} batch {self.leak.batch_index} "
            f"trial {self.leak.trial_index}"
        )
        if self.minimized is None:
            return f"LEAK at {spot} ({base})"
        note = " [minimization truncated]" if self.minimized.truncated else ""
        return (
            f"LEAK at {spot}, minimized "
            f"{self.minimized.original_length}->{self.minimized.length} "
            f"insts in {self.minimized.probes} probes{note} ({base})"
        )


def run_fuzz(
    config: FuzzConfig,
    *,
    n_batches: int = 4,
    batch_size: int = 64,
    max_rounds: int = 8,
    mutate_ratio: float = 0.5,
    stop_on_leak: bool = True,
    minimize: bool = True,
    # Ignored; kept only because the frozen perfbench/workloads.py passes it.
    backend: object = None,
    n_workers: int | None = 1,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
    experiment: str = "fuzz",
) -> FuzzReport:
    """Run one fuzz campaign (see the module docstring).

    ``n_workers`` (``None``: one per CPU) picks the executor: one worker
    runs batches inline, more fan them over a process pool.  ``budget_s``
    stamps a shared absolute deadline on every shard; truncated rounds
    report ``timeout`` records (timing-dependent, like every budget).
    The log header's ``n_units`` is ``max_rounds``, the rounds planned.
    """
    started = clock.monotonic()
    deadline = None if budget_s is None else started + budget_s
    limits = SearchLimits(deadline=deadline)
    executor = make_executor(n_workers)
    # Fuzz campaigns count themselves like verification campaigns: one
    # CampaignTelemetry per run, re-pointing the process-global alias.
    from repro.campaign import scheduler as _scheduler

    telemetry = _scheduler.CampaignTelemetry(
        backend=executor.name, capacity=executor.capacity()
    )
    _scheduler.LAST_TELEMETRY = telemetry
    if log is not None:
        log.header(experiment, telemetry.capacity, max_rounds)
    coverage = CoverageMap()
    corpus: list[tuple] = []
    rounds: list[FuzzRound] = []
    leak: FuzzLeak | None = None
    minimized: MinimizedLeak | None = None
    with executor:
        for round_index in range(max_rounds):
            if deadline is not None and clock.monotonic() >= deadline:
                break
            with obs.span(
                "fuzz.round", round=round_index, batches=n_batches
            ):
                tickets: dict[int, int] = {}
                for batch_index in range(n_batches):
                    shard = FuzzShard(
                        config=config,
                        round_index=round_index,
                        batch_index=batch_index,
                        n_programs=batch_size,
                        corpus=tuple(corpus),
                        known_coverage=coverage.snapshot(),
                        mutate_ratio=mutate_ratio,
                        stop_on_leak=stop_on_leak,
                        limits=limits,
                    )
                    ticket = executor.submit_unit(WorkItem(fuzz=shard))
                    tickets[ticket] = batch_index
                    telemetry.shards += 1
                    obs.event(
                        "shard.submit",
                        ticket=ticket,
                        unit=f"round-{round_index}/batch-{batch_index}",
                        predicted=batch_size,
                    )
                results = collect_results(
                    executor, tickets, n_batches, label="fuzz shard"
                )
                merged = FuzzRound(index=round_index)
                round_leaks: list[FuzzLeak] = []
                for result in results:  # batch-index order: the merge contract
                    if isinstance(result, Outcome):
                        # Budget-synthesized timeout: the shard never ran.
                        merged.truncated = True
                        continue
                    merged.programs += result.programs
                    merged.cycles += result.cycles
                    merged.oracle_runs += result.oracle_runs
                    merged.oracle_cycles += result.oracle_cycles
                    for name, count in result.verdicts:
                        merged.verdicts[name] = (
                            merged.verdicts.get(name, 0) + count
                        )
                    merged.new_coverage += len(
                        coverage.merge(result.new_coverage)
                    )
                    for program in result.corpus_additions:
                        corpus.append(program)
                    merged.truncated |= result.truncated is not None
                    merged.leaks += len(result.leaks)
                    round_leaks.extend(result.leaks)
                del corpus[:-CORPUS_CAP]
            merged.elapsed = clock.monotonic() - started
            obs.event(
                "fuzz.round.done",
                round=round_index,
                programs=merged.programs,
                oracle_runs=merged.oracle_runs,
                oracle_cycles=merged.oracle_cycles,
                new_coverage=merged.new_coverage,
                leaks=merged.leaks,
            )
            round_leak = (
                min(round_leaks, key=lambda l: l.order)
                if round_leaks
                else None
            )
            rounds.append(merged)
            if log is not None:
                log.result(
                    experiment,
                    (f"round-{round_index}",),
                    merged.outcome(round_leak),
                    extra={
                        "fuzz": {
                            "programs": merged.programs,
                            "oracle_runs": merged.oracle_runs,
                            "oracle_cycles": merged.oracle_cycles,
                            "new_coverage": merged.new_coverage,
                            "coverage_total": len(coverage),
                            "corpus_size": len(corpus),
                            "leaks": merged.leaks,
                        }
                    },
                )
            if round_leak is not None and stop_on_leak:
                leak = round_leak
                break
            if round_leak is not None and leak is None:
                leak = round_leak
        if leak is not None and minimize:
            minimized = minimize_leak(config, leak, executor, limits=limits)
            if log is not None:
                _log_minimized(log, experiment, leak, minimized)
    return FuzzReport(
        config=config,
        rounds=rounds,
        coverage=coverage,
        corpus_size=len(corpus),
        leak=leak,
        minimized=minimized,
        elapsed=clock.monotonic() - started,
    )


def _log_minimized(
    log: CampaignLog,
    experiment: str,
    leak: FuzzLeak,
    minimized: MinimizedLeak,
) -> None:
    """One ``result`` record for the minimized leak (replay-complete)."""
    from repro.campaign.log import _instruction_to_json
    from repro.fuzz.minimize import minimized_env

    cex = minimized_env(minimized)
    outcome = Outcome(
        kind=ATTACK,
        elapsed=0.0,
        stats=SearchStats(states=minimized.probes),
        counterexample=cex,
        note="fuzz-minimized",
    )
    log.result(
        experiment,
        ("leak",),
        outcome,
        extra={
            "fuzz": {
                "found_at": list(leak.order),
                "original_length": minimized.original_length,
                "minimized_length": minimized.length,
                "probes": minimized.probes,
                "truncated": minimized.truncated,
                "program": [
                    _instruction_to_json(inst) for inst in minimized.program
                ],
            }
        },
    )
