"""Deterministic seed derivation shared by every randomized stage.

Everything the fuzzer and the concrete-run drivers do -- program
generation, secret-pair sampling, predictor bits, mutation choices --
must be a pure function of the campaign seed and the trial's
coordinates, so that a batch executed in a pool worker process
reproduces a serial run bit for bit.  ``random.Random`` gives
reproducible *streams* once seeded, but deriving the per-trial seeds
themselves must not go through ``hash()`` (string hashing is salted per
process) or platform-sized integers.  This module is that derivation: a
splitmix64-style mixer over 64-bit lanes.

Grown out of ``repro.fuzz`` (which still re-exports it) once
``repro.uarch.driver`` needed the same salt-immune derivation; the
``determinism`` checker in :mod:`repro.analysis` now points every
``hash()``-for-seeding finding here.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def mix64(value: int) -> int:
    """One splitmix64 finalization round (Stafford variant 13)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def derive_seed(*lanes: int) -> int:
    """Fold integer coordinates into one well-mixed 64-bit seed.

    ``derive_seed(campaign_seed, round, batch, trial)`` gives every
    trial an independent stream; the same coordinates always give the
    same seed, on every platform and in every process.
    """
    state = 0x243F6A8885A308D3  # pi, for lack of nothing-up-my-sleeve
    for lane in lanes:
        state = mix64(state ^ (lane & _MASK))
    return state


def predictor_bit(pred_seed: int, pc: int, occurrence: int) -> bool:
    """The shared branch-predictor oracle of one fuzz trial.

    A pure function of ``(pred_seed, pc, occurrence)`` -- both machine
    copies consult the same oracle, mirroring the model checker's
    uninterpreted-function predictor, and minimization re-runs candidate
    programs under the *same* oracle even though deleting instructions
    shifts pcs.
    """
    return bool(derive_seed(pred_seed, pc, occurrence) & 1)
