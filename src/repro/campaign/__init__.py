"""Parallel verification campaigns (root-batch sharded search).

Public surface:

- :class:`repro.campaign.registry.CoreSpec` / :func:`core_spec` --
  picklable named core factories (drop-in for the old lambdas),
- :class:`CampaignUnit` + :func:`run_campaign` -- fan a grid of
  verification tasks (one bench table) across ``n_workers`` workers,
- :func:`verify_sharded` -- shard a single task into contiguous batches
  of its secret-pair roots,
- :mod:`repro.campaign.backends` -- the executors: ``SerialBackend``
  (inline, for one worker) and ``ProcessPoolBackend`` (worker
  processes, for more), picked by ``make_executor``,
- :class:`repro.campaign.log.CampaignLog` -- JSONL result logs that
  ``python -m repro.bench.report --from-log`` re-renders without
  re-running.

``python -m repro.campaign`` runs a seconds-scale mini-campaign (used by
CI to catch pickling / determinism / worker-count regressions early).
"""

from repro.campaign.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkItem,
)
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
    core_factory_names,
    core_spec,
    register_core_factory,
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
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "WorkItem",
    "canonical_lines",
    "core_factory_names",
    "core_spec",
    "outcome_from_json",
    "outcome_to_json",
    "read_records",
    "register_core_factory",
    "resolve_workers",
    "run_campaign",
    "result_records",
    "verify_sharded",
]
