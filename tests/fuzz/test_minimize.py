"""Delta-debugging invariants: validated reductions, 1-minimality."""

from __future__ import annotations

from repro.campaign.backends import SerialBackend
from repro.campaign.registry import core_spec
from repro.fuzz.configs import preset_config
from repro.fuzz.minimize import minimize_leak, minimized_env
from repro.fuzz.oracle import TRACE_LEAK, run_trace
from repro.fuzz.work import FuzzConfig, FuzzLeak, MinimizeProbe
from repro.isa.encoding import space_tiny
from repro.isa.instruction import HALT, alu, branch, load, loadimm
from repro.isa.params import MachineParams
from repro.mc.replay import replay
from repro.rand import predictor_bit
from repro.uarch.config import Defense

#: Six instruction slots so the padded program has real fat to trim.
PARAMS = MachineParams(imem_size=6)

PAIR = ((0, 0, 0, 0), (0, 0, 0, 1))

NT_SEED = next(s for s in range(64) if not predictor_bit(s, 0, 0))


def _config() -> FuzzConfig:
    return FuzzConfig(
        core=core_spec("simple_ooo", defense=Defense.NONE, params=PARAMS),
        contract_name="sandboxing",
        space=space_tiny(),
        max_cycles=128,
        seed=0,
    )


def _leak(config: FuzzConfig, program) -> FuzzLeak:
    """Validate ``program`` leaks and wrap it as a found-leak record."""
    trace = run_trace(
        config.build_product(), program, PAIR, NT_SEED, root_label="t"
    )
    assert trace.verdict == TRACE_LEAK, "fixture program must leak"
    return FuzzLeak(
        round_index=0,
        batch_index=0,
        trial_index=0,
        program=program,
        root_label="t",
        dmem_pair=PAIR,
        pred_seed=NT_SEED,
        cycles=trace.cycles,
        counterexample=trace.counterexample,
    )


#: The gadget buried in noise: pcs shift under every deletion the
#: minimizer tries, so only oracle-validated reductions can survive.
PADDED = (
    branch(0, 2),
    load(1, 0, 3),
    load(2, 1, 0),
    alu(1, 1, 2),
    loadimm(1, 3),
    HALT,
)


def test_minimizes_to_the_three_instruction_gadget():
    config = _config()
    leak = _leak(config, PADDED)
    minimized = minimize_leak(config, leak, SerialBackend())
    assert minimized.original_length == 6
    assert minimized.length == 3
    assert minimized.program == PADDED[:3]
    assert minimized.probes > 0


def test_minimized_program_still_leaks_and_replays():
    config = _config()
    minimized = minimize_leak(config, _leak(config, PADDED), SerialBackend())
    trace = run_trace(
        config.build_product(), minimized.program, PAIR, NT_SEED
    )
    assert trace.verdict == TRACE_LEAK
    replayed = replay(config.build_product(), minimized.counterexample)
    assert replayed[-1].result.failed
    cropped = minimized_env(minimized)
    assert len(cropped.env.imem) == minimized.length
    assert replay(config.build_product(), cropped)[-1].result.failed


def test_result_is_one_minimal():
    """Removing any single instruction from the snippet kills the leak."""
    config = _config()
    minimized = minimize_leak(config, _leak(config, PADDED), SerialBackend())
    for drop in range(minimized.length):
        candidate = (
            minimized.program[:drop] + minimized.program[drop + 1 :]
        )
        probe = MinimizeProbe(
            config=config,
            index=0,
            program=candidate,
            dmem_pair=PAIR,
            root_label="t",
            pred_seed=NT_SEED,
        )
        assert not probe.run().leaked, f"dropping slot {drop} still leaks"


def test_minimization_is_deterministic_across_backends():
    from repro.campaign.backends import ProcessPoolBackend

    config = _config()
    leak = _leak(config, PADDED)
    serial = minimize_leak(config, leak, SerialBackend())
    with ProcessPoolBackend(2) as pool:
        parallel = minimize_leak(config, leak, pool)
    assert serial.program == parallel.program
    assert serial.counterexample == parallel.counterexample
    assert serial.probes == parallel.probes


def test_trailing_halts_are_trimmed_without_probes():
    """Padding HALTs never execute; they fall off before ddmin starts."""
    config = _config()
    program = (branch(0, 2), load(1, 0, 3), load(2, 1, 0), HALT, HALT, HALT)
    minimized = minimize_leak(config, _leak(config, program), SerialBackend())
    assert minimized.length == 3


def test_budget_expiry_marks_the_result_truncated_not_minimal():
    """Probes cut off by the campaign deadline must not masquerade as
    'no leak' -- the result keeps the validated program and says it
    never established 1-minimality."""
    import time

    from repro.mc.explorer import SearchLimits

    config = _config()
    leak = _leak(config, PADDED)
    minimized = minimize_leak(
        config,
        leak,
        SerialBackend(),
        limits=SearchLimits(deadline=time.monotonic() - 1.0),
    )
    assert minimized.truncated
    # Nothing was reduced (no probe ran), but the program still leaks.
    trace = run_trace(
        config.build_product(), minimized.program, PAIR, NT_SEED
    )
    assert trace.verdict == TRACE_LEAK


def test_completed_minimization_is_not_truncated():
    config = _config()
    minimized = minimize_leak(config, _leak(config, PADDED), SerialBackend())
    assert not minimized.truncated


def test_mini_preset_leak_minimizes_within_the_acceptance_bound():
    """The ISSUE acceptance criterion: <= 8 instructions on fuzz-mini."""
    from repro.fuzz.campaign import run_fuzz

    preset = preset_config("fuzz-mini")
    report = run_fuzz(
        preset.config,
        n_batches=preset.n_batches,
        batch_size=preset.batch_size,
        max_rounds=preset.max_rounds,
    )
    assert report.found_leak
    assert report.minimized is not None
    assert report.minimized.length <= 8
