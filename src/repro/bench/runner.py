"""Shared benchmark plumbing: timed runs and paper-style table rendering.

The drivers in this package build their grids as lists of
:class:`repro.campaign.CampaignUnit` and hand them to
:func:`run_units`, which fans them over the campaign scheduler --
``n_workers=1`` runs every cell inline as one shard, larger counts
shard every cell across its secret-pair roots and run the whole grid
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.log import CampaignLog
from repro.campaign.scheduler import CampaignResult, CampaignUnit, run_campaign
from repro.core.verifier import VerificationTask, verify
from repro.mc.result import Outcome

#: Table-2 style glyphs (the paper uses emoji; we keep them ASCII).
GLYPHS = {
    "proved": "proof",
    "attack": "ATTACK",
    "timeout": "t/o",
    "unknown": "unknown",
}


@dataclass(frozen=True)
class BudgetedResult:
    """One table cell: an outcome plus its identifying labels."""

    experiment: str
    design: str
    contract: str
    outcome: Outcome

    @property
    def cell(self) -> str:
        """Short cell text, e.g. ``ATTACK 0.3s`` or ``proof 2.5s``."""
        return f"{GLYPHS[self.outcome.kind]} {self.outcome.elapsed:.1f}s"


def run_task(
    experiment: str, design: str, task: VerificationTask
) -> BudgetedResult:
    """Run one verification task and wrap it as a table cell."""
    outcome = verify(task)
    return BudgetedResult(
        experiment=experiment,
        design=design,
        contract=task.contract.name,
        outcome=outcome,
    )


def run_units(
    units: list[CampaignUnit],
    *,
    n_workers: int | None = 1,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
    experiment: str = "bench",
) -> dict[tuple[str, ...], Outcome]:
    """Run a driver's unit grid; returns ``outcome`` by unit ``key``.

    Defaults to ``n_workers=1`` (every cell inline, one shard each) so
    that existing callers and committed benchmark numbers keep their
    meaning; drivers surface the knob to their callers.  Results are
    bit-identical across worker counts (see
    :func:`repro.campaign.scheduler.run_campaign`).
    """
    results: list[CampaignResult] = run_campaign(
        units,
        n_workers=n_workers,
        budget_s=budget_s,
        log=log,
        experiment=experiment,
    )
    return {result.key: result.outcome for result in results}


def format_table(
    title: str, columns: list[str], rows: list[tuple[str, list[str]]]
) -> str:
    """Render an ASCII table (row label + one cell per column).

    With no rows the header line still renders (a campaign cut short by
    its budget can legitimately produce an empty grid).
    """
    label_width = max([len(r[0]) for r in rows] + [len(title)])
    widths = [
        max([len(col)] + [len(cells[i]) for _, cells in rows])
        for i, col in enumerate(columns)
    ]
    lines = [title]
    header = " " * label_width + " | " + " | ".join(
        col.ljust(widths[i]) for i, col in enumerate(columns)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, cells in rows:
        line = label.ljust(label_width) + " | " + " | ".join(
            cells[i].ljust(widths[i]) for i in range(len(columns))
        )
        lines.append(line)
    return "\n".join(lines)
