"""Picklable fuzz work units: batches and minimization probes.

These are the payloads :class:`repro.campaign.executor.WorkItem` carries
when the campaign infrastructure schedules *fuzzing* instead of
exhaustive search.  Both unit kinds are pure functions of their pickled
fields -- the property both executor paths (inline / pool) rely on
for deterministic merges:

- :class:`FuzzShard` -- one batch of random-testing trials.  The trial
  stream is fully determined by ``(config.seed, round, batch, trial)``
  through :func:`repro.rand.derive_seed`, and coverage novelty is
  judged against the ``known_coverage`` snapshot shipped *in* the shard
  -- so a shard's result is independent of where and when it runs.
  A shard runs each distinct concrete trace once: trials that replay a
  trace already run in the same shard are answered from its
  :class:`repro.fuzz.oracle.TraceMemo`.
- :class:`MinimizeProbe` -- one delta-debugging candidate: does this
  reduced program still leak on this secret pair under this predictor
  seed?

Deadlines: like search shards, fuzz units carry
:class:`repro.mc.explorer.SearchLimits`; a shard past its campaign
deadline stops early and reports itself truncated (timing-dependent,
exactly like budget-tripped search campaigns).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.obs import clock
from repro.core.contracts import CONTRACTS
from repro.core.verifier import SCHEME_SHADOW, VerificationTask
from repro.fuzz.generator import GeneratorConfig, ProgramSampler
from repro.fuzz.oracle import (
    TRACE_HUNG,
    TRACE_INVALID,
    TRACE_LEAK,
    TRACE_OK,
    TraceMemo,
    run_trace,
)
from repro.rand import derive_seed
from repro.isa.encoding import EncodingSpace
from repro.isa.instruction import Instruction
from repro.mc.explorer import SearchLimits
from repro.mc.result import Counterexample

#: Per-trial verdict names, in fixed report order.
TRIAL_VERDICTS = (TRACE_LEAK, TRACE_OK, TRACE_INVALID, TRACE_HUNG)


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing target: design, contract, input domain, seed.

    ``core`` must be picklable (use
    :class:`repro.campaign.registry.CoreSpec`, like multiprocess
    verification campaigns).  ``contract_name`` indexes
    :data:`repro.core.contracts.CONTRACTS` so the config stays
    JSON-describable.
    """

    core: object  # zero-arg picklable factory (CoreSpec)
    contract_name: str
    space: EncodingSpace
    generator: GeneratorConfig = GeneratorConfig()
    scheme: str = SCHEME_SHADOW
    secret_mode: str = "auto"
    max_cycles: int = 256
    seed: int = 0

    def build_product(self):
        """The design under test, via the verifier's own constructor."""
        task = VerificationTask(
            core_factory=self.core,
            contract=CONTRACTS[self.contract_name](),
            space=self.space,
            scheme=self.scheme,
        )
        return task.build_product()

    def build_roots(self):
        """The secret-pair roots trials sample from."""
        from repro.core.secrets import secret_memory_pairs

        params = self.core().params
        return secret_memory_pairs(params, self.secret_mode)

    def describe(self) -> dict:
        """Stable JSON-able identity for logs and reports."""
        core = self.core
        core_desc = core.describe() if hasattr(core, "describe") else repr(core)
        return {
            "core": core_desc,
            "contract": self.contract_name,
            "scheme": self.scheme,
            "secret_mode": self.secret_mode,
            "space_size": self.space.size(),
            "program_length": self.generator.length,
            "gadget_bias": self.generator.gadget_bias,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FuzzLeak:
    """One leaking trial: the raw witness, before minimization."""

    round_index: int
    batch_index: int
    trial_index: int
    program: tuple[Instruction, ...]
    root_label: str
    dmem_pair: tuple[tuple[int, ...], tuple[int, ...]]
    pred_seed: int
    cycles: int
    counterexample: Counterexample

    @property
    def order(self) -> tuple[int, int, int]:
        """Deterministic tie-break: serial trial order."""
        return (self.round_index, self.batch_index, self.trial_index)


@dataclass(frozen=True)
class FuzzShardResult:
    """Everything one batch reports back for the deterministic merge.

    ``cycles`` is the product cycles of every trial; ``oracle_runs`` and
    ``oracle_cycles`` count the traces and cycles the shard actually
    stepped (trials its trace memo answered are left out), and
    ``oracle_steps`` the machine steps the product ran for them (a
    twin-mode cycle of :class:`repro.core.products.ShadowProduct` steps
    one copy, and a catch-up steps the other through what it owes).
    """

    round_index: int
    batch_index: int
    programs: int
    cycles: int
    oracle_runs: int
    oracle_cycles: int
    oracle_steps: int
    verdicts: tuple[tuple[str, int], ...]  # verdict name -> count
    new_coverage: tuple[str, ...]  # sorted, novel vs known_coverage
    corpus_additions: tuple[tuple[Instruction, ...], ...]
    leaks: tuple[FuzzLeak, ...]
    truncated: str | None  # "deadline" when the budget cut the batch
    elapsed: float

    def verdict_count(self, name: str) -> int:
        return dict(self.verdicts).get(name, 0)


@dataclass(frozen=True)
class FuzzShard:
    """One schedulable batch of fuzz trials (a ``WorkItem`` payload)."""

    config: FuzzConfig
    round_index: int
    batch_index: int
    n_programs: int
    corpus: tuple[tuple[Instruction, ...], ...] = ()
    known_coverage: frozenset = frozenset()
    mutate_ratio: float = 0.5
    stop_on_leak: bool = True
    limits: SearchLimits = field(default_factory=SearchLimits)

    def run(self) -> FuzzShardResult:
        """Execute the batch; pure in the shard's fields."""
        started = clock.monotonic()
        config = self.config
        product = config.build_product()
        roots = config.build_roots()
        if not roots:
            raise ValueError("fuzz target has no secret pairs to distinguish")
        sampler = ProgramSampler(
            config.space, product.params, config.generator
        )
        deadline = self.limits.deadline
        seen = set(self.known_coverage)
        new_keys: set[str] = set()
        counts = {name: 0 for name in TRIAL_VERDICTS}
        additions: list[tuple[Instruction, ...]] = []
        leaks: list[FuzzLeak] = []
        memo = TraceMemo()
        programs = cycles = oracle_runs = oracle_cycles = 0
        truncated: str | None = None
        for trial in range(self.n_programs):
            if deadline is not None and clock.monotonic() >= deadline:
                truncated = "deadline"
                break
            trial_seed = derive_seed(
                config.seed, self.round_index, self.batch_index, trial
            )
            rng = random.Random(trial_seed)
            if self.corpus and rng.random() < self.mutate_ratio:
                parent = self.corpus[rng.randrange(len(self.corpus))]
                program = sampler.mutate(parent, rng)
            else:
                program = sampler.fresh(rng)
            root_index = rng.randrange(len(roots))
            root = roots[root_index]
            pred_seed = derive_seed(trial_seed, 0x70726564)  # "pred"
            programs += 1
            leaf = memo.lookup(root_index, program, pred_seed)
            if leaf is not None:
                # A replay of a trace this shard ran: its coverage keys
                # are all seen already, and it never leaked.
                counts[leaf[0]] += 1
                cycles += leaf[1]
                continue
            trace = run_trace(
                product,
                program,
                root.dmem_pair,
                pred_seed,
                max_cycles=config.max_cycles,
                root_label=root.label,
            )
            memo.insert(root_index, trace)
            oracle_runs += 1
            oracle_cycles += trace.cycles
            cycles += trace.cycles
            counts[trace.verdict] += 1
            novel = [k for k in trace.coverage if k not in seen]
            if novel:
                seen.update(novel)
                new_keys.update(novel)
                additions.append(program)
            if trace.verdict == TRACE_LEAK:
                leaks.append(
                    FuzzLeak(
                        self.round_index,
                        self.batch_index,
                        trial,
                        program,
                        root.label,
                        root.dmem_pair,
                        pred_seed,
                        trace.cycles,
                        trace.counterexample,
                    )
                )
                if self.stop_on_leak:
                    break
        return FuzzShardResult(
            round_index=self.round_index,
            batch_index=self.batch_index,
            programs=programs,
            cycles=cycles,
            oracle_runs=oracle_runs,
            oracle_cycles=oracle_cycles,
            # The baseline product keeps no count: it steps all four
            # machines every cycle.
            oracle_steps=getattr(
                product, "steps", len(product.machines) * oracle_cycles
            ),
            verdicts=tuple((name, counts[name]) for name in TRIAL_VERDICTS),
            new_coverage=tuple(sorted(new_keys)),
            corpus_additions=tuple(additions),
            leaks=tuple(leaks),
            truncated=truncated,
            elapsed=clock.monotonic() - started,
        )


@dataclass(frozen=True)
class ProbeResult:
    """One minimization candidate's verdict."""

    index: int
    leaked: bool
    cycles: int
    counterexample: Counterexample | None


@dataclass(frozen=True)
class MinimizeProbe:
    """One delta-debugging candidate (a ``WorkItem`` payload)."""

    config: FuzzConfig
    index: int  # candidate position within its ddmin wave
    program: tuple[Instruction, ...]
    dmem_pair: tuple[tuple[int, ...], tuple[int, ...]]
    root_label: str
    pred_seed: int
    limits: SearchLimits = field(default_factory=SearchLimits)

    def run(self) -> ProbeResult:
        """Re-execute the oracle on the candidate; pure in the fields."""
        product = self.config.build_product()
        trace = run_trace(
            product,
            self.program,
            self.dmem_pair,
            self.pred_seed,
            max_cycles=self.config.max_cycles,
            root_label=self.root_label,
        )
        return ProbeResult(
            index=self.index,
            leaked=trace.verdict == TRACE_LEAK,
            cycles=trace.cycles,
            counterexample=trace.counterexample,
        )
