"""Parallel verification campaigns (root-batch sharded search).

Public surface:

- :class:`repro.campaign.registry.CoreSpec` / :func:`core_spec` --
  picklable named core factories (drop-in for the old lambdas),
- :class:`CampaignUnit` + :func:`run_campaign` -- fan a grid of
  verification tasks (one bench table) across ``n_workers`` workers,
- :func:`verify_sharded` -- shard a single task into contiguous batches
  of its secret-pair roots,
- :class:`repro.campaign.executor.Executor` -- runs a list of
  :class:`WorkItem` shards inline (one worker) or in a process pool
  (more), yielding ``(index, outcome)``,
- :class:`repro.campaign.log.CampaignLog` -- JSONL result logs that
  ``python -m repro.bench.report --from-log`` re-renders without
  re-running.

``python -m repro.campaign`` runs a seconds-scale mini-campaign (used by
CI to catch pickling / determinism / worker-count regressions early).
"""

from repro.campaign.executor import Executor, WorkItem
from repro.campaign.log import (
    CampaignLog,
    canonical_lines,
    outcome_from_json,
    outcome_to_json,
    read_records,
    result_records,
)
from repro.campaign.registry import (
    CORE_FACTORIES,
    CoreSpec,
    core_spec,
)
from repro.campaign.scheduler import (
    BUDGET_NOTE,
    CampaignResult,
    CampaignUnit,
    resolve_workers,
    run_campaign,
    verify_sharded,
)

__all__ = [
    "BUDGET_NOTE",
    "CORE_FACTORIES",
    "CampaignLog",
    "CampaignResult",
    "CampaignUnit",
    "CoreSpec",
    "Executor",
    "WorkItem",
    "canonical_lines",
    "core_spec",
    "outcome_from_json",
    "outcome_to_json",
    "read_records",
    "resolve_workers",
    "run_campaign",
    "result_records",
    "verify_sharded",
]
