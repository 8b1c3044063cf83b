"""Table 2: scheme comparison on five designs (sandboxing contract).

Rows: Baseline (Fig. 1a), LEAVE-style, UPEC-style, Contract Shadow Logic.
Columns: Sodor, SimpleOoO-S, SimpleOoO, Ridecore, BOOM.

Expected qualitative outcomes (paper / this reproduction):

====================  ========  ===========  =========  ========  ======
scheme                Sodor     SimpleOoO-S  SimpleOoO  Ridecore  BOOM
====================  ========  ===========  =========  ========  ======
Baseline  (paper)     t/o       t/o          ATTACK     ATTACK    --
LEAVE     (paper)     proof     unknown      unknown    --        --
UPEC      (paper)     --        --           --         --        (ATTACK)
Ours      (paper)     proof     proof        ATTACK     ATTACK    ATTACK
====================  ========  ===========  =========  ========  ======

Divergence D1 (see EXPERIMENTS.md): in an explicit-state engine the
baseline does *not* time out at these scales -- its eager ISA machines
prune invalid programs earlier than commit-time checking can.  The paper's
baseline timeouts are a symbolic-proof-engine phenomenon.  We therefore
report the baseline cells honestly (usually "proof", sometimes faster than
ours) and mark the divergence, instead of tuning budgets to manufacture
timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.configs import (
    BOOM_PARAMS,
    SIMPLE_PARAMS,
    SPACE_BOOM,
    SPACE_RIDECORE,
    SPACE_SIMPLE,
    Scale,
)
from repro.bench.runner import GLYPHS, format_table, run_units
from repro.campaign.log import CampaignLog, outcome_from_json
from repro.campaign.registry import CoreSpec, core_spec
from repro.campaign.scheduler import CampaignUnit
from repro.core.contracts import sandboxing
from repro.core.leave import leave_verify
from repro.core.secrets import secret_memory_pairs
from repro.core.upec import upec_verify
from repro.core.verifier import VerificationTask
from repro.mc.explorer import SearchLimits
from repro.mc.result import Outcome
from repro.uarch.config import Defense

EXPERIMENT = "table2"


@dataclass(frozen=True)
class Design:
    """One Table-2 column."""

    name: str
    core_factory: CoreSpec
    space: object
    secure: bool


def designs() -> list[Design]:
    """The five evaluated designs (factories are picklable core specs)."""
    return [
        Design(
            "Sodor",
            core_spec("inorder", params=SIMPLE_PARAMS),
            SPACE_SIMPLE,
            True,
        ),
        Design(
            "SimpleOoO-S",
            core_spec(
                "simple_ooo",
                defense=Defense.DELAY_SPECTRE,
                params=SIMPLE_PARAMS,
            ),
            SPACE_SIMPLE,
            True,
        ),
        Design(
            "SimpleOoO",
            core_spec("simple_ooo", defense=Defense.NONE, params=SIMPLE_PARAMS),
            SPACE_SIMPLE,
            False,
        ),
        Design(
            "Ridecore",
            core_spec("ridecore", params=SIMPLE_PARAMS),
            SPACE_RIDECORE,
            False,
        ),
        Design("BOOM", core_spec("boom", params=BOOM_PARAMS), SPACE_BOOM, False),
    ]


def units(scale: Scale, schemes: tuple[str, ...] = ("shadow", "baseline")) -> list[CampaignUnit]:
    """The model-checked cells of the grid as campaign units.

    The LEAVE and UPEC rows use their own comparison verifiers (not
    :class:`VerificationTask`), so :func:`run` executes them serially
    after the campaign -- they are second-scale.
    """
    contract = sandboxing()
    grid = []
    for design in designs():
        for scheme in schemes:
            if scheme == "baseline":
                limits = SearchLimits(timeout_s=scale.baseline_timeout)
            else:
                limits = SearchLimits(
                    timeout_s=scale.proof_timeout
                    if design.secure
                    else scale.attack_timeout
                )
            grid.append(
                CampaignUnit(
                    experiment=EXPERIMENT,
                    key=(scheme, design.name),
                    task=VerificationTask(
                        core_factory=design.core_factory,
                        contract=contract,
                        space=design.space,
                        scheme=scheme,
                        limits=limits,
                    ),
                )
            )
    return grid


def run(
    scale: Scale,
    *,
    n_workers: int | None = 1,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
) -> dict[str, dict[str, Outcome]]:
    """Run the comparison matrix; returns ``results[scheme][design]``.

    Scheme coverage follows the paper's shaded cells: LEAVE only on the
    cores its in-order-oriented candidates target (plus our OoO extension),
    UPEC only on BOOM.  ``n_workers`` fans the shadow/baseline grid over
    the campaign scheduler (``1`` = every cell inline).
    """
    results: dict[str, dict[str, Outcome]] = {
        "baseline": {},
        "leave": {},
        "upec": {},
        "shadow": {},
    }
    contract = sandboxing()
    by_key = run_units(
        units(scale),
        n_workers=n_workers,
        budget_s=budget_s,
        log=log,
        experiment=EXPERIMENT,
    )
    for (scheme, design_name), outcome in by_key.items():
        results[scheme][design_name] = outcome
    for design in designs():
        if design.name in ("Sodor", "SimpleOoO-S", "SimpleOoO"):
            params = design.core_factory().params
            roots = secret_memory_pairs(params, "all")
            results["leave"][design.name] = leave_verify(
                design.core_factory, contract, design.space, roots
            )
        if design.name == "BOOM":
            results["upec"][design.name] = upec_verify(
                design.core_factory,
                contract,
                design.space,
                sources=("branch",),
                limits=SearchLimits(timeout_s=scale.attack_timeout),
            )
    return results


def results_from_records(records: list[dict]) -> dict[str, dict[str, Outcome]]:
    """Rebuild the (campaign-covered) matrix from JSONL result records."""
    results: dict[str, dict[str, Outcome]] = {
        "baseline": {},
        "leave": {},
        "upec": {},
        "shadow": {},
    }
    for record in records:
        if record.get("experiment") != EXPERIMENT:
            continue
        scheme, design_name = record["key"]
        results[scheme][design_name] = outcome_from_json(record["outcome"])
    return results


def format_rows(results: dict[str, dict[str, Outcome]]) -> str:
    """Render the matrix the way Table 2 reads."""
    columns = [d.name for d in designs()]
    rows = []
    for scheme in ("baseline", "leave", "upec", "shadow"):
        cells = []
        for column in columns:
            outcome = results[scheme].get(column)
            if outcome is None:
                cells.append("--")
            else:
                cells.append(f"{GLYPHS[outcome.kind]} {outcome.elapsed:.1f}s")
        label = {"shadow": "ours (shadow logic)"}.get(scheme, scheme)
        rows.append((label, cells))
    return format_table("Table 2 -- sandboxing contract", columns, rows)
