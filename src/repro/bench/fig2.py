"""Figure 2: verification time vs. structure sizes (§7.3).

Two panels: (a) prove NoFwd-futuristic under the sandboxing contract,
(b) prove Delay-spectre under the constant-time contract.  Each panel
sweeps one structure at a time around the default configuration (4-entry
register file, data memory and ROB):

- **register file**: expected negligible impact (paper) -- extra registers
  only widen the state vector, they are not reachable by the encoding.
- **data memory**: limited impact for sandboxing, larger for constant-time
  (paper) -- more secret cells mean more quantifier roots.
- **ROB**: dominant, superlinear impact (paper: exponential).  In an
  explicit-state engine the path count plays the role of JasperGold's
  state-bit count, so the sweep couples the symbolic-program depth to the
  ROB capacity (a k-entry ROB is only exercised by >= k in-flight
  instructions); divergence D3 in EXPERIMENTS.md.

Every sweep point is an independent :class:`CampaignUnit` (most pin a
``secret_mode="single"`` quantifier with one or two roots), so a
parallel sweep spreads its points across workers; a point never splits
below its roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.configs import Scale
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

EXPERIMENT = "fig2"

#: Sweep points (the paper sweeps {2, 4, 8, 16}; the committed quick suite
#: stops where a point would dominate the suite's budget -- recorded in
#: EXPERIMENTS.md together with calibration-run numbers).
REGFILE_SIZES = (2, 4, 8, 16)
DMEM_SIZES = (2, 4, 8)
ROB_SIZES = (2, 4, 8)

#: Structure sweep order (also the rendering order).
STRUCTURES = ("regfile", "dmem", "rob")


@dataclass(frozen=True)
class Panel:
    """One Fig. 2 panel: a defense/contract pair."""

    key: str
    defense: Defense
    contract_factory: object
    title: str


PANELS = (
    Panel("a", Defense.NOFWD_FUTURISTIC, sandboxing,
          "(a) NoFwd-futuristic / sandboxing"),
    Panel("b", Defense.DELAY_SPECTRE, constant_time,
          "(b) Delay-spectre / constant-time"),
)


@dataclass
class SweepResult:
    """Outcome series for one structure sweep."""

    structure: str
    points: list[tuple[int, Outcome]] = field(default_factory=list)


def _space(mem_size: int, rob_size: int) -> EncodingSpace:
    """The minimal sweep universe (registers r0/r1, last-cell secret)."""
    return EncodingSpace(
        load_rd=(1,),
        load_rs=(0, 1),
        load_imm=(0, mem_size - 1),
        branch_rs=(0,),
        branch_off=(2,),
    )


def _params(n_regs: int = 4, mem_size: int = 4, imem_size: int = 3) -> MachineParams:
    return MachineParams(
        n_regs=n_regs,
        mem_size=mem_size,
        n_public=max(1, mem_size // 2),
        value_bits=1,
        imem_size=imem_size,
    )


def _imem_for_rob(rob_size: int) -> int:
    """Symbolic-program depth needed to exercise a ROB of this size."""
    return min(rob_size + 1, 6)


def _point_config(structure: str, size: int) -> tuple[MachineParams, int]:
    """(machine parameters, ROB capacity) of one sweep point."""
    if structure == "regfile":
        return _params(n_regs=size), 4
    if structure == "dmem":
        return _params(mem_size=size), 4
    if structure == "rob":
        return _params(imem_size=_imem_for_rob(size)), size
    raise ValueError(f"unknown sweep structure {structure!r}")


def point_task(panel: Panel, structure: str, size: int, scale: Scale) -> VerificationTask:
    """Build the (picklable) verification task for one sweep point."""
    params, rob_size = _point_config(structure, size)
    return VerificationTask(
        core_factory=core_spec(
            "simple_ooo", defense=panel.defense, params=params, rob_size=rob_size
        ),
        contract=panel.contract_factory(),
        space=_space(params.mem_size, rob_size),
        secret_mode="single",
        limits=SearchLimits(timeout_s=scale.proof_timeout),
    )


def _sweep_sizes(
    regfile_sizes=REGFILE_SIZES, dmem_sizes=DMEM_SIZES, rob_sizes=ROB_SIZES
) -> dict[str, tuple[int, ...]]:
    return {"regfile": regfile_sizes, "dmem": dmem_sizes, "rob": rob_sizes}


def units(
    scale: Scale,
    *,
    regfile_sizes=REGFILE_SIZES,
    dmem_sizes=DMEM_SIZES,
    rob_sizes=ROB_SIZES,
) -> list[CampaignUnit]:
    """Both panels' sweep grids as campaign units.

    Unit keys are ``(panel, structure, size)``; the reduced-size keyword
    arguments carve out mini grids (the CI determinism smoke).
    """
    grid = []
    for panel in PANELS:
        for structure, sizes in _sweep_sizes(
            regfile_sizes, dmem_sizes, rob_sizes
        ).items():
            for size in sizes:
                grid.append(
                    CampaignUnit(
                        experiment=EXPERIMENT,
                        key=(panel.key, structure, str(size)),
                        task=point_task(panel, structure, size, scale),
                    )
                )
    return grid


def _empty_results() -> dict[str, dict[str, SweepResult]]:
    return {
        panel.key: {s: SweepResult(s) for s in STRUCTURES} for panel in PANELS
    }


def run(
    scale: Scale,
    *,
    n_workers: int | None = 1,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
    regfile_sizes=REGFILE_SIZES,
    dmem_sizes=DMEM_SIZES,
    rob_sizes=ROB_SIZES,
) -> dict[str, dict[str, SweepResult]]:
    """Run both panels; returns ``results[panel][structure]``.

    ``n_workers`` fans the sweep grid over the campaign scheduler
    (``1`` = every point inline).  Most points have one or two
    quantifier roots, so the sweep parallelizes across points: its wall
    time is bounded below by its largest point (the biggest ROB).
    """
    grid = units(
        scale,
        regfile_sizes=regfile_sizes,
        dmem_sizes=dmem_sizes,
        rob_sizes=rob_sizes,
    )
    by_key = run_units(
        grid,
        n_workers=n_workers,
        budget_s=budget_s,
        log=log,
        experiment=EXPERIMENT,
    )
    results = _empty_results()
    for (panel_key, structure, size), outcome in by_key.items():
        results[panel_key][structure].points.append((int(size), outcome))
    return results


def results_from_records(records: list[dict]) -> dict[str, dict[str, SweepResult]]:
    """Rebuild the sweep series from JSONL result records."""
    results = _empty_results()
    for record in records:
        if record.get("experiment") != EXPERIMENT:
            continue
        panel_key, structure, size = record["key"]
        results[panel_key][structure].points.append(
            (int(size), outcome_from_json(record["outcome"]))
        )
    return results


def format_rows(results: dict[str, dict[str, SweepResult]]) -> str:
    """Render both panels as time series."""
    lines = ["Figure 2 -- proving time vs structure sizes"]
    for panel in PANELS:
        lines.append(panel.title)
        sweeps = results[panel.key]
        for name in STRUCTURES:
            series = ", ".join(
                f"{size}:{outcome.elapsed:.1f}s"
                + ("" if outcome.proved else f"({outcome.kind})")
                for size, outcome in sweeps[name].points
            )
            lines.append(f"  {name:8s} {series}")
    return "\n".join(lines)
