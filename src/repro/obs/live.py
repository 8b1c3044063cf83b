"""Live campaign status: periodic :class:`ProgressSnapshot` production.

A running campaign was a black box until it exited; this module is the
streaming half of ``repro.obs``.  A :class:`ProgressTracker` accumulates
scheduler-side progress (units done/total, verdict counts, shard and
state counters, an EWMA states/s) as the campaign works, and a
:class:`StatusPublisher` periodically folds that state -- together with
the campaign's :class:`repro.obs.metrics.MetricsRegistry` and the
backend's in-flight count -- into a frozen :class:`ProgressSnapshot`.
Each snapshot goes to up to two sinks:

- the process-global :data:`LAST_SNAPSHOT` (the in-process surface --
  poll it from another thread or read it after the campaign), and
- an atomically-rewritten ``--status-json`` file for external scrapers
  and ``python -m repro.obs.watch`` (write-temp-then-``os.replace``,
  so readers never see a torn write).

Publication is pull-scheduled from the backends' own wait loops
(:meth:`repro.campaign.backends.base.ExecutionBackend._publish_status`),
so snapshots keep flowing while the scheduler blocks on slow shards.
None of it touches results: every field is derived from counters the
scheduler already maintains, the publisher is rate-limited, and a lost
or slow status consumer can only ever cost the snapshot, never a
verdict.

Snapshots never leave the coordinating process except as JSON
(:func:`snapshot_to_json`), so a reader needs no pickle trust in the
campaign.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

from repro.obs import clock

__all__ = [
    "LAST_SNAPSHOT",
    "ProgressSnapshot",
    "ProgressTracker",
    "StatusPublisher",
    "snapshot_from_json",
    "snapshot_to_json",
    "write_status_json",
]


@dataclass(frozen=True, slots=True)
class ProgressSnapshot:
    """One frozen view of a running campaign.

    ``verdicts`` / ``counters`` / ``gauges`` are sorted name/value
    tuples (not dicts) so the record hashes and compares.  ``eta_s``
    extrapolates the unit completion rate and is ``None`` until the
    first unit lands; ``states_per_s`` is the EWMA over completed
    shards' measured throughput (the same estimate the batch planner
    calibrates with).
    """

    seq: int
    uptime_s: float
    wall_unix_s: float
    experiment: str
    backend: str
    capacity: int
    units_total: int
    units_done: int
    verdicts: tuple[tuple[str, int], ...]
    shards_submitted: int
    shards_done: int
    inflight: int
    states: int
    states_per_s: float
    eta_s: float | None
    counters: tuple[tuple[str, float], ...] = ()
    gauges: tuple[tuple[str, float], ...] = ()
    finished: bool = False

    @property
    def done(self) -> bool:
        # ``finished`` marks the final snapshot of a campaign that ran to
        # its end, also one that ran fewer units than planned (a fuzz
        # campaign a leak or its budget stopped, even before round one).
        return self.finished or (
            self.units_total > 0 and self.units_done >= self.units_total
        )


def snapshot_to_json(snapshot: ProgressSnapshot) -> dict:
    """The snapshot as a plain JSON-safe dict (the ``--status-json`` body)."""
    data = asdict(snapshot)
    data["verdicts"] = [list(pair) for pair in snapshot.verdicts]
    data["counters"] = [list(pair) for pair in snapshot.counters]
    data["gauges"] = [list(pair) for pair in snapshot.gauges]
    data["type"] = "status"
    return data


def snapshot_from_json(data: dict) -> ProgressSnapshot:
    """Rebuild a snapshot from :func:`snapshot_to_json` output."""
    fields = dict(data)
    fields.pop("type", None)
    fields["verdicts"] = tuple(
        (str(name), int(count)) for name, count in fields.get("verdicts", ())
    )
    fields["counters"] = tuple(
        (str(name), value) for name, value in fields.get("counters", ())
    )
    fields["gauges"] = tuple(
        (str(name), value) for name, value in fields.get("gauges", ())
    )
    return ProgressSnapshot(**fields)


#: The most recent snapshot published in this process (the in-process
#: status surface for serial/process backends); re-pointed per tick.
LAST_SNAPSHOT: ProgressSnapshot | None = None


class ProgressTracker:
    """Mutable campaign-progress accumulator the scheduler feeds.

    One per campaign.  ``unit_done`` is idempotent per unit index (the
    scheduler's finalize paths can offer a unit more than once), shard
    counters are monotonic, and the states/s estimate is the same
    alpha-0.3 EWMA the batch-size calibration uses.  Everything here is
    bookkeeping about the campaign, never input to it.
    """

    #: EWMA step for the throughput estimate (mirrors the scheduler's
    #: ``_Calibration.ALPHA``).
    ALPHA = 0.3

    def __init__(
        self,
        *,
        experiment: str = "campaign",
        units_total: int = 0,
        backend: str = "",
        capacity: int = 0,
    ):
        self.experiment = experiment
        self.units_total = units_total
        self.backend = backend
        self.capacity = capacity
        self.started = clock.monotonic()
        self.verdicts: dict[str, int] = {}
        self.shards_submitted = 0
        self.shards_done = 0
        self.states = 0
        self.states_per_s = 0.0
        self.finished = False
        self._seq = 0
        self._done: set[int] = set()
        self._rate_samples = 0

    @property
    def units_done(self) -> int:
        return len(self._done)

    def unit_done(self, index: int, kind: str) -> None:
        """Record one finalized unit (idempotent per index)."""
        if index in self._done:
            return
        self._done.add(index)
        self.verdicts[kind] = self.verdicts.get(kind, 0) + 1

    def shard_submitted(self, n: int = 1) -> None:
        self.shards_submitted += n

    def shard_done(self, states: int = 0, elapsed: float | None = None) -> None:
        self.shards_done += 1
        if states > 0:
            self.states += states
        if elapsed is not None and elapsed > 0 and states > 0:
            self.note_rate(states / elapsed)

    def note_rate(self, sample: float) -> None:
        """Feed one measured throughput sample into the EWMA."""
        if sample <= 0:
            return
        if self._rate_samples == 0:
            self.states_per_s = sample
        else:
            self.states_per_s += self.ALPHA * (sample - self.states_per_s)
        self._rate_samples += 1

    def eta_s(self, uptime: float) -> float | None:
        """Remaining wall-clock by unit-rate extrapolation (or ``None``)."""
        done = self.units_done
        if done == 0 or uptime <= 0 or done >= self.units_total:
            return 0.0 if 0 < self.units_total <= done else None
        return (self.units_total - done) * (uptime / done)

    def build(self, *, inflight: int = 0, registry=None) -> ProgressSnapshot:
        """Fold the current state into one frozen snapshot."""
        self._seq += 1
        uptime = max(0.0, clock.monotonic() - self.started)
        counters: tuple[tuple[str, float], ...] = ()
        gauges: tuple[tuple[str, float], ...] = ()
        if registry is not None:
            counters = tuple(
                (name, c.value) for name, c in sorted(registry.counters.items())
            )
            gauges = tuple(
                (name, g.value)
                for name, g in sorted(registry.gauges.items())
                if g.value is not None
            )
        return ProgressSnapshot(
            seq=self._seq,
            uptime_s=uptime,
            wall_unix_s=clock.wall(),
            experiment=self.experiment,
            backend=self.backend,
            capacity=self.capacity,
            units_total=self.units_total,
            units_done=self.units_done,
            verdicts=tuple(sorted(self.verdicts.items())),
            shards_submitted=self.shards_submitted,
            shards_done=self.shards_done,
            inflight=inflight,
            states=self.states,
            states_per_s=self.states_per_s,
            eta_s=self.eta_s(uptime),
            counters=counters,
            gauges=gauges,
            finished=self.finished,
        )


def write_status_json(path: str, snapshot: ProgressSnapshot) -> None:
    """Atomically rewrite ``path`` with the snapshot's JSON form.

    Write-temp-then-rename in the target directory: an external scraper
    polling the file sees either the previous snapshot or this one,
    never a torn write.  Best-effort -- status files are observability,
    so an unwritable path must not fail the campaign (the caller
    reports the first failure and moves on).
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snapshot_to_json(snapshot), handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class StatusPublisher:
    """Rate-limited snapshot publication to every configured sink.

    Backends call :meth:`tick` from their wait loops (see
    ``ExecutionBackend._publish_status``); the campaign loops call
    :meth:`finish` at their end so the final snapshot always reads
    done.  A publisher is attached to at most one campaign
    at a time -- ``run_campaign``/``run_fuzz`` build a fresh one each.
    """

    def __init__(
        self,
        tracker: ProgressTracker,
        *,
        registry=None,
        interval: float = 1.0,
        path: str | None = None,
    ):
        self.tracker = tracker
        self.registry = registry
        self.interval = max(0.0, interval)
        self.path = path
        self.last_snapshot: ProgressSnapshot | None = None
        self._last_tick: float | None = None
        self._write_failed = False

    def tick(self, backend=None, *, force: bool = False) -> ProgressSnapshot | None:
        """Publish one snapshot if the interval elapsed (or ``force``)."""
        now = clock.monotonic()
        if (
            not force
            and self._last_tick is not None
            and now - self._last_tick < self.interval
        ):
            return None
        self._last_tick = now
        inflight = 0 if backend is None else backend.outstanding()
        snapshot = self.tracker.build(
            inflight=inflight, registry=self.registry
        )
        self.last_snapshot = snapshot
        global LAST_SNAPSHOT
        LAST_SNAPSHOT = snapshot
        if self.path is not None and not self._write_failed:
            try:
                write_status_json(self.path, snapshot)
            except OSError as exc:
                # Status files are pure observability: report once and
                # stop trying rather than failing (or spamming) the run.
                self._write_failed = True
                import sys

                print(
                    f"status-json: cannot write {self.path}: {exc}",
                    file=sys.stderr,
                )
        return snapshot

    def finish(self, backend=None) -> ProgressSnapshot | None:
        """Mark the campaign finished and publish its final snapshot."""
        self.tracker.finished = True
        return self.tick(backend, force=True)
