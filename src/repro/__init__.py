"""Contract Shadow Logic -- secure-speculation verification, in Python.

A from-scratch reproduction of *"RTL Verification for Secure Speculation
Using Contract Shadow Logic"* (Tan, Yang, Bourgeat, Malik, Yan -- ASPLOS
2025): the processors, the software-hardware contracts, the two-phase
shadow logic, an explicit-state model checker playing JasperGold's role,
the four-machine baseline scheme, and LEAVE-style / UPEC-style comparison
verifiers -- plus the benchmark harness regenerating every table and
figure of the paper's evaluation.

Typical use::

    from repro import (
        Defense, MachineParams, SearchLimits, VerificationTask,
        sandboxing, simple_ooo, space_tiny, verify,
    )

    task = VerificationTask(
        core_factory=lambda: simple_ooo(Defense.NONE,
                                        params=MachineParams(imem_size=3)),
        contract=sandboxing(),
        space=space_tiny(),
        limits=SearchLimits(timeout_s=60),
    )
    outcome = verify(task)     # -> attack, with a replayable program
    print(outcome.counterexample.describe())

Running campaigns / CI
----------------------

Bench grids and the secret-pair roots inside a single task are
embarrassingly parallel; ``repro.campaign`` fans both across worker
processes while keeping merged verdicts, counterexamples and search
statistics bit-identical to the serial engine::

    from repro import CampaignUnit, core_spec, run_campaign, verify_sharded

    task = VerificationTask(
        core_factory=core_spec("simple_ooo", defense=Defense.NONE,
                               params=MachineParams(imem_size=3)),
        contract=sandboxing(), space=space_tiny(),
        limits=SearchLimits(timeout_s=60),
    )
    outcome = verify_sharded(task, n_workers=4)   # root-sharded search
    results = run_campaign([CampaignUnit("demo", ("shadow", "SimpleOoO"),
                                         task)], n_workers=4)

``core_spec`` replaces ``lambda`` core factories with picklable names
of the four evaluated cores (see ``repro.campaign.registry``);
``n_workers=1`` is the serial reproducibility path, ``None`` means one
worker per CPU.  The
bench drivers (``repro.bench.table2`` / ``table3`` / ``boom_hunt``) and
``python -m repro.bench.report --workers N --log out.jsonl`` ride the
same scheduler; ``--from-log out.jsonl`` re-renders tables without
re-running.  CI (``.github/workflows/ci.yml``) runs the tier-1 suite on
Python 3.10-3.12 plus a 1-worker vs 4-worker mini-campaign
(``python -m repro.campaign``) whose canonical JSONL logs must match.

See README.md for the architecture overview and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.campaign import (
    CampaignLog,
    CampaignResult,
    CampaignUnit,
    CoreSpec,
    core_spec,
    run_campaign,
    verify_sharded,
)
from repro.core.contracts import Contract, constant_time, sandboxing
from repro.core.shadow import ContractShadowLogic
from repro.core.verifier import VerificationTask, verify
from repro.events import CommitRecord, CycleOutput, FetchBundle
from repro.isa.encoding import (
    EncodingSpace,
    space_boom,
    space_dom,
    space_mul,
    space_small,
    space_tiny,
)
from repro.isa.instruction import Instruction, Opcode
from repro.isa.machine import IsaMachine
from repro.isa.params import MachineParams
from repro.isa.program import Program
from repro.mc.explorer import Explorer, Root, SearchLimits
from repro.mc.replay import format_trace, replay
from repro.mc.result import Counterexample, Outcome
from repro.uarch.boom import BoomLikeCore, boom, boom_params
from repro.uarch.config import CacheConfig, CoreConfig, Defense
from repro.uarch.inorder import InOrderCore
from repro.uarch.simple_ooo import SimpleOoOCore, simple_ooo, simple_ooo_s
from repro.uarch.superscalar import SuperscalarCore, ridecore

__version__ = "1.0.0"

__all__ = [
    "BoomLikeCore",
    "CacheConfig",
    "CampaignLog",
    "CampaignResult",
    "CampaignUnit",
    "CommitRecord",
    "Contract",
    "CoreSpec",
    "ContractShadowLogic",
    "CoreConfig",
    "Counterexample",
    "CycleOutput",
    "Defense",
    "EncodingSpace",
    "Explorer",
    "FetchBundle",
    "InOrderCore",
    "Instruction",
    "IsaMachine",
    "MachineParams",
    "Opcode",
    "Outcome",
    "Program",
    "Root",
    "SearchLimits",
    "SimpleOoOCore",
    "SuperscalarCore",
    "VerificationTask",
    "boom",
    "boom_params",
    "constant_time",
    "core_spec",
    "format_trace",
    "replay",
    "ridecore",
    "run_campaign",
    "sandboxing",
    "simple_ooo",
    "simple_ooo_s",
    "space_boom",
    "space_dom",
    "space_mul",
    "space_small",
    "space_tiny",
    "verify",
    "verify_sharded",
]
