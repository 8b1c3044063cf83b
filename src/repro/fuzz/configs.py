"""Built-in fuzz campaign presets (the ``--units`` grids).

``fuzz-mini`` is the acceptance workload: the insecure SimpleOoO core
on the mini geometry -- the same planted Spectre-v1-style leak the
``mini`` verification grid's ``insecure`` cell finds by exhaustive
search -- which the fuzzer must find and minimize from a fixed seed,
bit-identically at every worker count.  ``fuzz-defended`` is the control:
the Delay-spectre defended core, where the same budget must find
nothing.  ``fuzz-boom`` aims the generator at the BoomLike core's
misalignment/illegal-access speculation sources (§7.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.registry import core_spec
from repro.fuzz.generator import GeneratorConfig
from repro.fuzz.work import FuzzConfig
from repro.isa.encoding import space_boom, space_tiny
from repro.isa.params import MachineParams
from repro.uarch.config import Defense

#: The mini OOO geometry: tiny domains, 4-slot instruction memory.
MINI_PARAMS = MachineParams()

#: The fixed campaign seed of the CI smoke job (recorded in
#: EXPERIMENTS.md; changing it invalidates committed BENCH_fuzz.json).
SMOKE_SEED = 20250726


@dataclass(frozen=True)
class FuzzPreset:
    """One named fuzz campaign: target config + campaign knobs.

    ``max_minimized`` is the instruction-count bound the minimized leak
    of a ``"leak"`` preset must meet -- the CLI exits nonzero past it,
    which is what lets the CI smoke job assert "found *and* minimized"
    with one command.
    """

    name: str
    config: FuzzConfig
    n_batches: int = 4
    batch_size: int = 64
    max_rounds: int = 8
    expect: str = "leak"  # "leak" or "clean"
    max_minimized: int = 8
    description: str = ""

    def expectation_met(self, found_leak: bool) -> bool:
        return found_leak == (self.expect == "leak")


def _simple_ooo_config(defense: Defense, seed: int) -> FuzzConfig:
    return FuzzConfig(
        core=core_spec("simple_ooo", defense=defense, params=MINI_PARAMS),
        contract_name="sandboxing",
        space=space_tiny(),
        generator=GeneratorConfig(length=4, gadget_bias=0.6),
        max_cycles=128,
        seed=seed,
    )


def _boom_config(seed: int) -> FuzzConfig:
    return FuzzConfig(
        core=core_spec("boom", params=MachineParams(wrap_addresses=False)),
        contract_name="sandboxing",
        space=space_boom(),
        generator=GeneratorConfig(length=4, gadget_bias=0.6),
        max_cycles=128,
        seed=seed,
    )


def preset_config(name: str, seed: int | None = None) -> FuzzPreset:
    """Build a preset, optionally overriding the campaign seed."""
    seed = SMOKE_SEED if seed is None else seed
    if name == "fuzz-mini":
        return FuzzPreset(
            name=name,
            config=_simple_ooo_config(Defense.NONE, seed),
            expect="leak",
            description="insecure SimpleOoO, planted Spectre-v1 leak",
        )
    if name == "fuzz-defended":
        return FuzzPreset(
            name=name,
            config=_simple_ooo_config(Defense.DELAY_SPECTRE, seed),
            max_rounds=2,
            expect="clean",
            description="Delay-spectre SimpleOoO, same budget, no leak",
        )
    if name == "fuzz-boom":
        return FuzzPreset(
            name=name,
            config=_boom_config(seed),
            expect="leak",
            description="BoomLike core, misalignment/illegal sources",
        )
    raise ValueError(f"unknown fuzz preset {name!r}; known: {FUZZ_PRESETS}")


#: Preset names the CLIs accept.
FUZZ_PRESETS = ("fuzz-mini", "fuzz-defended", "fuzz-boom")
