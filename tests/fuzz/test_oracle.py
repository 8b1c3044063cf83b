"""Trace-oracle verdicts, soundness (replay) and coverage keys."""

from __future__ import annotations

import pytest

from repro.core.contracts import sandboxing
from repro.core.products import ShadowProduct
from repro.fuzz.oracle import (
    TRACE_HUNG,
    TRACE_INVALID,
    TRACE_LEAK,
    TRACE_OK,
    run_trace,
)
from repro.isa.instruction import branch, load
from repro.isa.params import MachineParams
from repro.mc.replay import replay
from repro.rand import predictor_bit
from repro.uarch.config import Defense
from repro.uarch.simple_ooo import simple_ooo

PARAMS = MachineParams()

#: The canonical Spectre-v1 gadget: mispredicted branch shadowing a
#: dependent load chain off the secret word at address 3.
GADGET = (branch(0, 2), load(1, 0, 3), load(2, 1, 0))

#: Secret pair differing only in the word the gadget transmits.
PAIR = ((0, 0, 0, 0), (0, 0, 0, 1))

#: A predictor seed whose oracle predicts pc0 *not taken* -- the
#: misprediction that opens the transient window (r0 == 0, so the
#: branch is architecturally taken).
NT_SEED = next(s for s in range(64) if not predictor_bit(s, 0, 0))


def _product(defense: Defense = Defense.NONE) -> ShadowProduct:
    return ShadowProduct(
        lambda: simple_ooo(defense=defense, params=PARAMS), sandboxing()
    )


def test_spectre_gadget_leaks_on_the_insecure_core():
    trace = run_trace(_product(), GADGET, PAIR, NT_SEED)
    assert trace.verdict == TRACE_LEAK
    assert trace.counterexample is not None
    assert trace.counterexample.reason == "leakage"
    # The transient window left its marks in the coverage signature.
    assert any(key.startswith("squash/") for key in trace.coverage)
    assert "phase/drain" in trace.coverage
    assert any(key.startswith("specload/") for key in trace.coverage)


def test_leak_counterexamples_replay_through_the_standard_machinery():
    """Oracle soundness, executable form: the fuzz counterexample is an
    ordinary model-checker counterexample -- replay re-fires it."""
    trace = run_trace(_product(), GADGET, PAIR, NT_SEED)
    fresh = _product()
    replayed = replay(fresh, trace.counterexample)
    assert replayed[-1].result.failed
    # And the environment records exactly the predictor bits consumed.
    assert trace.counterexample.env.prediction((0, 0)) is False


def test_the_delay_spectre_defense_stops_the_same_trace():
    trace = run_trace(
        _product(Defense.DELAY_SPECTRE), GADGET, PAIR, NT_SEED
    )
    assert trace.verdict == TRACE_OK


def test_contract_violating_programs_are_invalid_not_leaks():
    """An architecturally committed secret load violates the sandboxing
    constraint: the pair is outside the contract quantifier (pruned)."""
    program = (load(1, 0, 3),)
    trace = run_trace(_product(), program, PAIR, NT_SEED)
    assert trace.verdict == TRACE_INVALID
    assert trace.reason == "contract"


def test_diverging_programs_report_hung():
    program = (branch(0, 0),)  # beqz r0, +0: branches to itself forever
    trace = run_trace(_product(), program, PAIR, NT_SEED, max_cycles=32)
    assert trace.verdict == TRACE_HUNG
    assert trace.cycles == 32


def test_traces_are_deterministic():
    first = run_trace(_product(), GADGET, PAIR, NT_SEED)
    second = run_trace(_product(), GADGET, PAIR, NT_SEED)
    assert first == second


@pytest.mark.parametrize("taken", [True, False])
def test_correctly_predicted_branches_do_not_leak(taken):
    """Without the misprediction there is no transient window: a seed
    predicting pc0 taken (the architectural outcome) stays clean."""
    seed = next(
        s for s in range(64) if predictor_bit(s, 0, 0) is taken
    )
    trace = run_trace(_product(), GADGET, PAIR, seed)
    expected = TRACE_OK if taken else TRACE_LEAK
    assert trace.verdict == expected
