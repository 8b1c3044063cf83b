"""Ablation: the shadow logic's phase-2 fetch gate.

DESIGN.md calls out one deliberate design choice inside our shadow-logic
implementation: once a microarchitectural deviation has been recorded
(phase 2), instruction fetch is gated.  This is behaviour-preserving --
post-deviation instructions are younger than the recorded drain tails, so
they can neither change committed values nor stall the drain -- but it
bounds how much state the model checker explores per failing-ish path.

The ablation runs attack, proof and drain-heavy workloads with the gate
on and off and checks (a) the verdicts agree, and (b) the gated
configuration explores no more work.  The gate's savings show up in the
*transition* count (symbolic slots concretized during phase 2 spawn
pruned transitions); with longer drains they surface in the state count
too.

Each (workload, gate) cell is an independent :class:`CampaignUnit`, so
the ablation fans over the campaign scheduler like the paper tables do
(``gate_fetch`` is an ordinary picklable task field).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.configs import SIMPLE_PARAMS, SPACE_SIMPLE, Scale
from repro.bench.runner import run_units
from repro.campaign.log import CampaignLog, outcome_from_json
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import CampaignUnit
from repro.core.contracts import constant_time, sandboxing
from repro.core.verifier import VerificationTask
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.mc.result import Outcome
from repro.uarch.config import Defense

EXPERIMENT = "ablation"

#: A drain-heavy *proof* workload (constant-time contract, insecure core):
#: a committed load may legitimately bring the secret into r1; a branch on
#: r1 then resolves differently across the copies, so squash timing -- and
#: with it the commit-count trace -- deviates *before* the branch commits
#: and its observation mismatch prunes the program.  Every deviation path
#: therefore enters phase 2 and drains; none is an attack (loads only use
#: r0-based constant addresses, so there is no transmitter).  This is the
#: workload where the phase-2 fetch gate earns its keep.
SPACE_DRAIN_HEAVY = EncodingSpace(
    loadimm_rd=(2,),
    loadimm_imm=(0, 3),
    load_rd=(1,),
    load_rs=(0,),
    load_imm=(0, 3),
    branch_rs=(1,),
    branch_off=(2,),
)

#: 5-slot programs for the drain-heavy workload: the gate only has
#: something to gate when unfetched slots remain at deviation time.
DEEP_PARAMS = replace(SIMPLE_PARAMS, imem_size=5)


@dataclass(frozen=True)
class Workload:
    """One ablation row: a (defense, space, params, contract) bundle."""

    slug: str
    label: str
    defense: Defense
    space: EncodingSpace
    params: MachineParams
    contract_factory: object


WORKLOADS = (
    Workload("attack", "attack (insecure SimpleOoO)", Defense.NONE,
             SPACE_SIMPLE, SIMPLE_PARAMS, sandboxing),
    Workload("proof", "proof (Delay-futuristic)", Defense.DELAY_FUTURISTIC,
             SPACE_SIMPLE, SIMPLE_PARAMS, sandboxing),
    Workload("drain-heavy", "drain-heavy proof (insecure, constant-time)",
             Defense.NONE, SPACE_DRAIN_HEAVY, DEEP_PARAMS, constant_time),
)

GATE_KEYS = ("gated", "ungated")


@dataclass(frozen=True)
class AblationResult:
    """Paired outcomes for one workload."""

    workload: str
    gated: Outcome
    ungated: Outcome


def _task(workload: Workload, gate_fetch: bool, scale: Scale) -> VerificationTask:
    return VerificationTask(
        core_factory=core_spec(
            "simple_ooo", defense=workload.defense, params=workload.params
        ),
        contract=workload.contract_factory(),
        space=workload.space,
        limits=SearchLimits(timeout_s=scale.proof_timeout),
        gate_fetch=gate_fetch,
    )


def units(
    scale: Scale, workloads: tuple[Workload, ...] = WORKLOADS
) -> list[CampaignUnit]:
    """The (workload, gate) grid as campaign units, keys ``(slug, gate)``."""
    grid = []
    for workload in workloads:
        for gate_key in GATE_KEYS:
            grid.append(
                CampaignUnit(
                    experiment=EXPERIMENT,
                    key=(workload.slug, gate_key),
                    task=_task(workload, gate_key == "gated", scale),
                )
            )
    return grid


def _assemble(
    by_key: dict[tuple[str, ...], Outcome],
    workloads: tuple[Workload, ...] = WORKLOADS,
) -> list[AblationResult]:
    results = []
    for workload in workloads:
        gated = by_key.get((workload.slug, "gated"))
        ungated = by_key.get((workload.slug, "ungated"))
        if gated is None or ungated is None:
            continue  # partial log / budget-truncated campaign
        results.append(AblationResult(workload.label, gated, ungated))
    return results


def run(
    scale: Scale,
    workloads: tuple[Workload, ...] = WORKLOADS,
    *,
    n_workers: int | None = 1,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
) -> list[AblationResult]:
    """Run the ablation on attack, plain-proof and drain-heavy workloads."""
    by_key = run_units(
        units(scale, workloads),
        n_workers=n_workers,
        budget_s=budget_s,
        log=log,
        experiment=EXPERIMENT,
    )
    return _assemble(by_key, workloads)


def results_from_records(records: list[dict]) -> list[AblationResult]:
    """Rebuild the paired comparison from JSONL result records."""
    by_key: dict[tuple[str, ...], Outcome] = {}
    for record in records:
        if record.get("experiment") != EXPERIMENT:
            continue
        by_key[tuple(record["key"])] = outcome_from_json(record["outcome"])
    return _assemble(by_key)


def format_rows(results: list[AblationResult]) -> str:
    """Render the ablation comparison."""
    lines = ["Ablation -- phase-2 fetch gating in the shadow logic"]
    for result in results:
        lines.append(
            f"  {result.workload}: gated {result.gated.kind} "
            f"{result.gated.stats.states} states / "
            f"{result.gated.stats.transitions} transitions vs ungated "
            f"{result.ungated.kind} {result.ungated.stats.states} states / "
            f"{result.ungated.stats.transitions} transitions"
        )
    return "\n".join(lines)
