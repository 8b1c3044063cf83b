"""Table 3: verification time per defense on SimpleOoO (§7.2).

Five defenses x two contracts, all verified with *the same* shadow logic --
the reusability claim.  Expected outcome shape (paper):

==================  ==========  =============
defense             sandboxing  constant-time
==================  ==========  =============
NoFwd-futuristic    proof       ATTACK
NoFwd-spectre       proof       ATTACK
Delay-futuristic    proof       proof
Delay-spectre       proof       proof
DoM-spectre         ATTACK      ATTACK
==================  ==========  =============

plus the two timing observations the paper highlights: attacks are found
much faster than proofs are completed, and the DoM attacks need a larger
configuration (the paper's 8-entry-ROB footnote; our DoM config also
widens the branch-resolution window -- see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.bench.configs import (
    DOM_BRANCH_LATENCY,
    DOM_PARAMS,
    DOM_ROB,
    SIMPLE_PARAMS,
    SPACE_DOM,
    SPACE_SIMPLE,
    Scale,
)
from repro.bench.runner import GLYPHS, format_table, run_units
from repro.campaign.log import CampaignLog, outcome_from_json
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import CampaignUnit
from repro.core.contracts import constant_time, sandboxing
from repro.core.verifier import VerificationTask
from repro.mc.explorer import SearchLimits
from repro.mc.result import Outcome
from repro.uarch.config import Defense

EXPERIMENT = "table3"

DEFENSES = [
    Defense.NOFWD_FUTURISTIC,
    Defense.NOFWD_SPECTRE,
    Defense.DELAY_FUTURISTIC,
    Defense.DELAY_SPECTRE,
    Defense.DOM_SPECTRE,
]

#: Paper-reported cells for EXPERIMENTS.md (minutes unless stated).
PAPER_CELLS = {
    (Defense.NOFWD_FUTURISTIC, "sandboxing"): "proof 66min",
    (Defense.NOFWD_FUTURISTIC, "constant-time"): "attack 0.4s",
    (Defense.NOFWD_SPECTRE, "sandboxing"): "proof 45h",
    (Defense.NOFWD_SPECTRE, "constant-time"): "attack 0.1s",
    (Defense.DELAY_FUTURISTIC, "sandboxing"): "proof 21min",
    (Defense.DELAY_FUTURISTIC, "constant-time"): "proof 10min",
    (Defense.DELAY_SPECTRE, "sandboxing"): "proof 151min",
    (Defense.DELAY_SPECTRE, "constant-time"): "proof 37min",
    (Defense.DOM_SPECTRE, "sandboxing"): "attack 6.5min",
    (Defense.DOM_SPECTRE, "constant-time"): "attack 5.9min",
}


def task_for(defense: Defense, contract, scale: Scale) -> VerificationTask:
    """Build the verification task for one Table-3 cell."""
    if defense is Defense.DOM_SPECTRE:
        return VerificationTask(
            core_factory=core_spec(
                "simple_ooo",
                defense=defense,
                params=DOM_PARAMS,
                rob_size=DOM_ROB,
                branch_latency=DOM_BRANCH_LATENCY,
            ),
            contract=contract,
            space=SPACE_DOM,
            limits=SearchLimits(timeout_s=scale.dom_timeout),
        )
    return VerificationTask(
        core_factory=core_spec("simple_ooo", defense=defense, params=SIMPLE_PARAMS),
        contract=contract,
        space=SPACE_SIMPLE,
        limits=SearchLimits(timeout_s=scale.proof_timeout),
    )


def units(scale: Scale, defenses=None) -> list[CampaignUnit]:
    """The defense-sweep grid as campaign units."""
    grid = []
    for defense in defenses or DEFENSES:
        for contract_factory in (sandboxing, constant_time):
            contract = contract_factory()
            grid.append(
                CampaignUnit(
                    experiment=EXPERIMENT,
                    key=(defense.value, contract.name),
                    task=task_for(defense, contract, scale),
                )
            )
    return grid


def run(
    scale: Scale,
    defenses=None,
    *,
    n_workers: int | None = 1,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
) -> dict[tuple[Defense, str], Outcome]:
    """Run the defense sweep; returns ``results[(defense, contract name)]``."""
    by_key = run_units(
        units(scale, defenses),
        n_workers=n_workers,
        budget_s=budget_s,
        log=log,
        experiment=EXPERIMENT,
    )
    return {
        (Defense(defense_value), contract_name): outcome
        for (defense_value, contract_name), outcome in by_key.items()
    }


def results_from_records(records: list[dict]) -> dict[tuple[Defense, str], Outcome]:
    """Rebuild the sweep results from JSONL result records."""
    results: dict[tuple[Defense, str], Outcome] = {}
    for record in records:
        if record.get("experiment") != EXPERIMENT:
            continue
        defense_value, contract_name = record["key"]
        results[(Defense(defense_value), contract_name)] = outcome_from_json(
            record["outcome"]
        )
    return results


def format_rows(results: dict[tuple[Defense, str], Outcome]) -> str:
    """Render the sweep the way Table 3 reads, with paper cells inline."""
    columns = ["sandboxing", "constant-time", "paper (sb)", "paper (ct)"]
    rows = []
    for defense in DEFENSES:
        cells = []
        for contract_name in ("sandboxing", "constant-time"):
            outcome = results.get((defense, contract_name))
            if outcome is None:
                cells.append("--")
            else:
                cells.append(f"{GLYPHS[outcome.kind]} {outcome.elapsed:.1f}s")
        cells.append(PAPER_CELLS[(defense, "sandboxing")])
        cells.append(PAPER_CELLS[(defense, "constant-time")])
        rows.append((defense.value, cells))
    return format_table("Table 3 -- defenses on SimpleOoO", columns, rows)
