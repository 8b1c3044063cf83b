"""The shard-local trace memo: exact, and never a shortcut for leaks.

A fuzz shard answers a trial from its :class:`repro.fuzz.oracle.TraceMemo`
when the trial's program and predictor seed give the same answers as a
trace the shard already ran.  Everything a shard reports must equal a
plain loop that runs the oracle on every trial.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from dataclasses import replace

import pytest

from repro import obs
from repro.campaign.log import CampaignLog
from repro.campaign.registry import core_spec
from repro.fuzz import oracle, work
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import preset_config
from repro.fuzz.generator import ProgramSampler
from repro.fuzz.oracle import TRACE_LEAK, TRACE_OK, TraceMemo, run_trace
from repro.fuzz.work import TRIAL_VERDICTS, FuzzConfig, FuzzShard
from repro.isa.instruction import HALT, BranchCond, branch, load, loadimm
from repro.isa.params import MachineParams
from repro.rand import derive_seed
from repro.uarch.config import Defense
from repro.uarch.ooo_base import OoOCore


def _reference(shard: FuzzShard) -> dict:
    """``FuzzShard.run`` without the memo: the oracle on every trial,
    drawing the same random numbers in the same order."""
    config = shard.config
    product = config.build_product()
    roots = config.build_roots()
    sampler = ProgramSampler(config.space, product.params, config.generator)
    seen = set(shard.known_coverage)
    new_keys: set[str] = set()
    counts = {name: 0 for name in TRIAL_VERDICTS}
    additions, leaks = [], []
    cycles = 0
    for trial in range(shard.n_programs):
        trial_seed = derive_seed(
            config.seed, shard.round_index, shard.batch_index, trial
        )
        rng = random.Random(trial_seed)
        if shard.corpus and rng.random() < shard.mutate_ratio:
            parent = shard.corpus[rng.randrange(len(shard.corpus))]
            program = sampler.mutate(parent, rng)
        else:
            program = sampler.fresh(rng)
        root = roots[rng.randrange(len(roots))]
        pred_seed = derive_seed(trial_seed, 0x70726564)
        trace = run_trace(
            product,
            program,
            root.dmem_pair,
            pred_seed,
            max_cycles=config.max_cycles,
            root_label=root.label,
        )
        cycles += trace.cycles
        counts[trace.verdict] += 1
        novel = [k for k in trace.coverage if k not in seen]
        if novel:
            seen.update(novel)
            new_keys.update(novel)
            additions.append(program)
        if trace.verdict == TRACE_LEAK:
            leaks.append(
                (trial, program, root.label, pred_seed, trace.cycles,
                 trace.counterexample)
            )
    return {
        "programs": shard.n_programs,
        "cycles": cycles,
        "verdicts": tuple((name, counts[name]) for name in TRIAL_VERDICTS),
        "new_coverage": tuple(sorted(new_keys)),
        "corpus_additions": tuple(additions),
        "leaks": leaks,
    }


def _observed(result) -> dict:
    return {
        "programs": result.programs,
        "cycles": result.cycles,
        "verdicts": result.verdicts,
        "new_coverage": result.new_coverage,
        "corpus_additions": result.corpus_additions,
        "leaks": [
            (leak.trial_index, leak.program, leak.root_label,
             leak.pred_seed, leak.cycles, leak.counterexample)
            for leak in result.leaks
        ],
    }


@pytest.mark.parametrize(
    "preset, n_programs", [("fuzz-defended", 1024), ("fuzz-mini", 384)]
)
def test_shard_equals_the_oracle_on_every_trial(preset, n_programs):
    config = preset_config(preset).config
    first = FuzzShard(
        config=config,
        round_index=0,
        batch_index=0,
        n_programs=n_programs,
        stop_on_leak=False,
    )
    result = first.run()
    assert _observed(result) == _reference(first)
    assert 0 < result.oracle_runs < result.programs
    assert 0 < result.oracle_cycles < result.cycles
    # A later-round shard mutates the corpus the first one built, and
    # judges novelty against the coverage it found.
    second = replace(
        first,
        round_index=1,
        corpus=result.corpus_additions,
        known_coverage=frozenset(result.new_coverage),
    )
    assert _observed(second.run()) == _reference(second)


def test_a_full_memo_stops_growing_and_stays_exact(monkeypatch):
    memos: list[TraceMemo] = []
    longest = 0

    class Recorded(TraceMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

        def insert(self, root, trace):
            nonlocal longest
            longest = max(longest, len(trace.queries) + 1)
            super().insert(root, trace)

    monkeypatch.setattr(work, "TraceMemo", Recorded)
    config = preset_config("fuzz-defended").config
    shard = FuzzShard(
        config=config,
        round_index=0,
        batch_index=0,
        n_programs=512,
        stop_on_leak=False,
    )
    unbounded = shard.run()
    monkeypatch.setattr(TraceMemo, "MAX_NODES", 64)
    capped = shard.run()
    assert _observed(capped) == _observed(unbounded) == _reference(shard)
    # Past the cap misses run again, but the stored traces still hit.
    assert unbounded.oracle_runs < capped.oracle_runs < capped.programs
    full, bounded = memos
    assert len(full.nodes) > 64
    # Only the one path that crosses the cap overshoots it.
    assert 64 <= len(bounded.nodes) < 64 + longest


def _scripted_shard(monkeypatch, config: FuzzConfig, programs) -> FuzzShard:
    """A shard whose trials run ``programs`` in order on the config's
    first secret pair (again for each run, and for :func:`_reference`)."""
    queue = itertools.cycle(programs)
    monkeypatch.setattr(ProgramSampler, "fresh", lambda self, rng: next(queue))
    root = config.build_roots()[0]
    monkeypatch.setattr(FuzzConfig, "build_roots", lambda self: [root])
    return FuzzShard(
        config=config,
        round_index=0,
        batch_index=0,
        n_programs=len(programs),
        stop_on_leak=False,
    )


def test_programs_differing_only_in_an_unfetched_slot_cost_one_run(
    monkeypatch,
):
    # Fetch stops at the HALT in slot 1: slots 2 and 3 are never read.
    short = (loadimm(1, 3), HALT, load(1, 0, 3), load(2, 1, 0))
    other = (loadimm(1, 3), HALT, loadimm(1, 3), HALT)
    config = preset_config("fuzz-mini").config
    shard = _scripted_shard(monkeypatch, config, [short, other])
    result = shard.run()
    assert result.programs == 2
    assert result.oracle_runs == 1
    assert result.verdict_count(TRACE_OK) == 2
    assert result.cycles == 2 * result.oracle_cycles
    assert result.corpus_additions == (short,)


def test_a_repeated_leak_runs_again_with_its_own_program(monkeypatch):
    # Every branch predicted not taken: the gadget's transient window
    # opens on every trial.
    monkeypatch.setattr(oracle, "predictor_bit", lambda seed, pc, occ: False)
    # An 8-slot instruction memory: the leaking trace fetches slots 0-3,
    # so the two programs differ only in slots it never reads.
    config = replace(
        preset_config("fuzz-mini").config,
        core=core_spec(
            "simple_ooo",
            defense=Defense.NONE,
            params=MachineParams(imem_size=8),
        ),
    )
    gadget = (branch(0, 2), load(1, 0, 3), load(2, 1, 0), HALT)
    first = gadget + (loadimm(1, 3), loadimm(1, 3))
    second = gadget + (HALT, loadimm(1, 3))
    shard = _scripted_shard(monkeypatch, config, [first, second])
    result = shard.run()
    assert result.oracle_runs == 2
    assert [leak.program for leak in result.leaks] == [first, second]
    for leak in result.leaks:
        imem = leak.counterexample.env.imem
        assert imem == leak.program + (HALT,) * (len(imem) - len(leak.program))
    assert (
        result.leaks[0].counterexample.env.imem
        != result.leaks[1].counterexample.env.imem
    )


def test_rounds_report_what_the_oracle_stepped(monkeypatch):
    """The round, its ``fuzz.round.done`` event and its log record carry
    the traces, cycles and machine steps the shards ran next to the
    logical totals."""
    machine_steps = itertools.count()
    step = OoOCore.step

    def counted_step(machine, bundle):
        next(machine_steps)
        return step(machine, bundle)

    monkeypatch.setattr(OoOCore, "step", counted_step)
    stream = io.StringIO()
    with obs.tracing() as recorder:
        report = run_fuzz(
            preset_config("fuzz-defended").config,
            n_batches=2,
            batch_size=256,
            max_rounds=1,
            stop_on_leak=False,
            minimize=False,
            log=CampaignLog(stream),
        )
    (round_,) = report.rounds
    assert 0 < round_.oracle_runs < round_.programs == 512
    assert 0 < round_.oracle_cycles < round_.cycles
    # Every machine step the serial run made, catch-up included; twin
    # mode steps one copy on most cycles.
    assert round_.oracle_steps == next(machine_steps)
    assert round_.oracle_cycles < round_.oracle_steps < 2 * round_.oracle_cycles
    (event,) = [e for e in recorder.events if e.name == "fuzz.round.done"]
    attrs = dict(event.attrs)
    assert attrs["oracle_runs"] == round_.oracle_runs
    assert attrs["oracle_cycles"] == round_.oracle_cycles
    assert attrs["oracle_steps"] == round_.oracle_steps
    (record,) = [
        json.loads(line)
        for line in stream.getvalue().splitlines()
        if json.loads(line)["type"] == "result"
    ]
    assert record["fuzz"]["oracle_runs"] == round_.oracle_runs
    assert record["fuzz"]["oracle_cycles"] == round_.oracle_cycles
    assert record["fuzz"]["oracle_steps"] == round_.oracle_steps


def test_trials_differing_only_in_a_later_occurrence_cost_two_runs(
    monkeypatch,
):
    """The predictor key is ``(pc, occurrence)``: a branch fetched a
    second time asks for a second bit, and the memo must compare it."""
    # Never taken (r0 is 0), but a taken prediction refetches the
    # branch itself, so the trace queries occurrence 1 as well.
    loop = (branch(0, 0, BranchCond.NEZ), HALT, HALT, HALT)
    config = preset_config("fuzz-mini").config
    shard = _scripted_shard(monkeypatch, config, [loop, loop])
    first_seed = derive_seed(derive_seed(config.seed, 0, 0, 0), 0x70726564)

    def bit(seed, pc, occurrence):
        # Both trials predict taken at every occurrence but 1, where
        # only the first trial does.
        return occurrence != 1 or seed == first_seed

    monkeypatch.setattr(oracle, "predictor_bit", bit)
    trace = run_trace(
        config.build_product(),
        loop,
        config.build_roots()[0].dmem_pair,
        first_seed,
        max_cycles=config.max_cycles,
    )
    assert ((0, 1), True) in trace.queries
    result = shard.run()
    assert result.oracle_runs == 2
    assert _observed(result) == _reference(shard)
