"""Shared CLI plumbing for the campaign and fuzz CLIs.

Both share ``--trace FILE`` (a :mod:`repro.obs` trace of the run).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager


def add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--trace FILE`` observability flag."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a structured trace (repro.obs) and write it as JSONL "
        "to FILE; render with python -m repro.obs.report FILE",
    )


@contextmanager
def trace_to(path: str | None):
    """Record a campaign trace around a CLI run, written at exit.

    ``None`` is a true no-op (no recorder installed -- the traced-off
    fast path).  Otherwise a recorder spans the block, and on the way
    out the trace JSONL lands at ``path``.  The write runs in a
    ``finally`` so an interrupted campaign still keeps its trace.
    """
    if not path:
        yield
        return
    from repro import obs
    from repro.obs import sinks

    with obs.tracing() as recorder:
        try:
            yield
        finally:
            count = sinks.write_jsonl(recorder, path)
            print(f"trace: {count} records -> {path}", file=sys.stderr)
