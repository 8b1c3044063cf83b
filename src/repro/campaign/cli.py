"""Shared CLI plumbing for the campaign, fuzz and bench report CLIs.

Every campaign-running CLI grows the same ``--backend {serial,process}``
flag (default: the historical behavior, serial for ``--workers 1``, a
process pool otherwise); its value passes straight through as the
``backend=`` argument of :func:`repro.campaign.scheduler.run_campaign`
or :func:`repro.fuzz.campaign.run_fuzz`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.campaign.backends import BACKEND_NAMES


def add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--backend`` flag."""
    parser.add_argument(
        "--backend", default=None, choices=BACKEND_NAMES,
        help="execution backend (default: serial path for 1 worker, "
        "process pool otherwise)",
    )


def add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--trace FILE`` observability flag."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a structured trace (repro.obs) and write it as JSONL "
        "to FILE; render with python -m repro.bench.report --trace FILE "
        "or python -m repro.obs.report FILE",
    )


def add_status_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--status-json`` / ``--history`` flags."""
    parser.add_argument(
        "--status-json", default=None, metavar="FILE",
        help="atomically rewrite FILE with the latest live ProgressSnapshot "
        "(~1/s, every backend); watch it with "
        "python -m repro.obs.watch --status-json FILE",
    )
    parser.add_argument(
        "--history", default=None, metavar="FILE",
        help="append one run record to this JSONL ledger when the run "
        "completes; compare runs with python -m repro.obs.history",
    )


def append_history(
    path: str | None,
    *,
    desc: dict,
    experiment: str,
    backend: str,
    capacity: int,
    units: int,
    verdicts: dict,
    wall_s: float,
    states: int,
) -> None:
    """Append a run to the ``--history`` ledger (no-op without a path)."""
    if not path:
        return
    from repro.obs import clock
    from repro.obs.history import append_run, make_run_record

    append_run(
        path,
        make_run_record(
            desc=desc,
            experiment=experiment,
            backend=backend,
            capacity=capacity,
            units=units,
            verdicts=verdicts,
            wall_s=wall_s,
            states=states,
            wall_unix_s=clock.wall(),
        ),
    )
    print(f"history: run appended -> {path}", file=sys.stderr)


@contextmanager
def trace_to(path: str | None):
    """Record a campaign trace around a CLI run, written at exit.

    ``None`` is a true no-op (no recorder installed -- the traced-off
    fast path).  Otherwise a recorder spans the block, and on the way
    out the trace JSONL lands at ``path`` -- including the metrics
    snapshot of whatever campaign ran last inside the block (the
    registry ``run_campaign``/``run_fuzz`` re-pointed).  The write runs
    in a ``finally`` so an interrupted campaign still keeps its trace.
    """
    if not path:
        yield
        return
    from repro import obs
    from repro.obs import metrics, sinks

    with obs.tracing() as recorder:
        try:
            yield
        finally:
            count = sinks.write_jsonl(
                recorder, path, registry=metrics.LAST_REGISTRY
            )
            print(f"trace: {count} records -> {path}", file=sys.stderr)
