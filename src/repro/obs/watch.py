"""Live campaign status viewer: ``python -m repro.obs.watch``.

Renders the stream of :class:`repro.obs.live.ProgressSnapshot` records a
running campaign publishes: ``--status-json PATH`` polls the file a
campaign's ``--status-json`` flag atomically rewrites, re-rendering
whenever the sequence number moves (every backend, and across hosts via
any shared filesystem).

On a TTY the view refreshes in place; ``--plain`` (or any non-TTY
stdout, e.g. CI logs) prints one text block per snapshot instead.
``--record PATH`` appends every snapshot as a JSON line -- the CI watch
smoke uses it to assert the watcher saw the campaign finish -- and
``--min-snapshots N`` turns "did the stream actually flow" into an exit
code.  The watcher is strictly read-only: it parses JSON (it never
unpickles a byte), and stopping it cannot affect campaign results.

Exit status: 0 after the campaign's final (``done``) snapshot (or
the first snapshot with ``--once``); 1 when ``--timeout`` expired
first or fewer than ``--min-snapshots`` arrived.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.obs import clock
from repro.obs.live import ProgressSnapshot, snapshot_from_json, snapshot_to_json


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def _fmt_rate(rate: float) -> str:
    if rate >= 1000:
        return f"{rate / 1000:.1f}k/s"
    return f"{rate:.0f}/s"


def render(snapshot: ProgressSnapshot) -> str:
    """One snapshot as a CI-safe plain-text block."""
    done = snapshot.units_done
    total = snapshot.units_total
    bar_width = 30
    filled = int(bar_width * done / total) if total else 0
    bar = "#" * filled + "-" * (bar_width - filled)
    lines = [
        (
            f"{snapshot.experiment} [{snapshot.backend or '?'}"
            f" x{snapshot.capacity}]  seq {snapshot.seq}"
            f"  uptime {_fmt_duration(snapshot.uptime_s)}"
        ),
        (
            f"units  [{bar}] {done}/{total}"
            f"  eta {_fmt_duration(snapshot.eta_s)}"
        ),
        (
            f"shards {snapshot.shards_done}/{snapshot.shards_submitted} done"
            f", {snapshot.inflight} in flight"
            f"  |  states {snapshot.states}"
            f" @ {_fmt_rate(snapshot.states_per_s)}"
        ),
    ]
    if snapshot.verdicts:
        verdicts = "  ".join(f"{k}={v}" for k, v in snapshot.verdicts)
        lines.append(f"verdicts  {verdicts}")
    if snapshot.done:
        lines.append("campaign complete")
    return "\n".join(lines)


class _View:
    """Render sink: in-place TTY refresh or one block per snapshot."""

    def __init__(self, *, plain: bool, record_path: str | None):
        self.plain = plain or not sys.stdout.isatty()
        self.seen = 0
        self._record = (
            open(record_path, "a", encoding="utf-8") if record_path else None
        )

    def show(self, snapshot: ProgressSnapshot) -> None:
        self.seen += 1
        if self._record is not None:
            json.dump(snapshot_to_json(snapshot), self._record, sort_keys=True)
            self._record.write("\n")
            self._record.flush()
        text = render(snapshot)
        if self.plain:
            print(text)
            print("--")
        else:
            # Clear + home keeps the block refreshing in place.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
        sys.stdout.flush()

    def close(self) -> None:
        if self._record is not None:
            self._record.close()


def _watch_file(
    path: str, view: _View, *, once: bool, interval: float, timeout: float | None
) -> int:
    """Poll a ``--status-json`` file, rendering each new sequence number."""
    deadline = None if timeout is None else clock.monotonic() + timeout
    last_seq = None
    while True:
        if deadline is not None and clock.monotonic() >= deadline:
            print(
                f"watch: no finished campaign in {path} after {timeout:g}s",
                file=sys.stderr,
            )
            return 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = None  # not written yet / mid-rename on exotic fs
        if isinstance(data, dict):
            try:
                snapshot = snapshot_from_json(data)
            except (TypeError, ValueError):
                snapshot = None
            if snapshot is not None and snapshot.seq != last_seq:
                last_seq = snapshot.seq
                view.show(snapshot)
                if once or snapshot.done:
                    return 0
        time.sleep(interval)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--status-json", metavar="PATH", required=True,
        help="poll a campaign's --status-json file",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="file-poll interval in seconds (default 1.0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="give up (exit 1) after this many seconds without a "
        "finished campaign (default: wait forever)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render the first snapshot and exit",
    )
    parser.add_argument(
        "--plain", action="store_true",
        help="one text block per snapshot (no TTY refresh; CI-safe)",
    )
    parser.add_argument(
        "--record", metavar="PATH", default=None,
        help="append every snapshot seen as a JSON line to PATH",
    )
    parser.add_argument(
        "--min-snapshots", type=int, default=0, metavar="N",
        help="exit 1 unless at least N snapshots were seen",
    )
    args = parser.parse_args(argv)

    view = _View(plain=args.plain, record_path=args.record)
    try:
        status = _watch_file(
            args.status_json,
            view,
            once=args.once,
            interval=max(0.05, args.interval),
            timeout=args.timeout,
        )
    finally:
        view.close()
    if status != 0:
        return status
    if view.seen < args.min_snapshots:
        print(
            f"watch: saw {view.seen} snapshot(s), "
            f"required {args.min_snapshots}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
