"""Unit tests for :mod:`repro.obs.live` (tracker, snapshots, publisher).

The live-status layer is observability-only, but its own contracts
still need pinning: ``unit_done`` idempotence (finalize paths can offer
a unit twice), the EWMA matching the scheduler's calibration constant,
JSON round-tripping (the ``--status-json`` file is JSON end to end), the
publisher's rate limit / ``force`` override, and the atomic
``--status-json`` rewrite that external scrapers rely on.
"""

import json
import os

import pytest

from repro.obs import clock, metrics
from repro.obs.live import (
    ProgressSnapshot,
    ProgressTracker,
    StatusPublisher,
    snapshot_from_json,
    snapshot_to_json,
    write_status_json,
)


@pytest.fixture
def fake_clock():
    """Hand-driven monotonic/wall clocks; restored afterwards."""
    state = {"mono": 100.0, "wall": 1.7e9}
    previous = clock.install(
        monotonic=lambda: state["mono"], wall=lambda: state["wall"]
    )
    try:
        yield state
    finally:
        clock.restore(previous)


def make_snapshot(**overrides) -> ProgressSnapshot:
    fields = dict(
        seq=3,
        uptime_s=12.5,
        wall_unix_s=1.7e9,
        experiment="fig2-mini",
        backend="process",
        capacity=4,
        units_total=8,
        units_done=5,
        verdicts=(("attack", 1), ("proved", 4)),
        shards_submitted=20,
        shards_done=17,
        inflight=3,
        states=123456,
        states_per_s=8000.0,
        eta_s=7.5,
        counters=(("campaign.units", 5.0),),
        gauges=(("campaign.capacity", 4.0),),
    )
    fields.update(overrides)
    return ProgressSnapshot(**fields)


class TestTracker:
    def test_unit_done_is_idempotent_per_index(self, fake_clock):
        tracker = ProgressTracker(units_total=3)
        tracker.unit_done(0, "proved")
        tracker.unit_done(0, "proved")
        tracker.unit_done(0, "attack")  # same index, later verdict: ignored
        tracker.unit_done(1, "attack")
        assert tracker.units_done == 2
        assert tracker.verdicts == {"proved": 1, "attack": 1}

    def test_ewma_seeds_then_steps_by_alpha(self, fake_clock):
        tracker = ProgressTracker()
        tracker.note_rate(1000.0)
        assert tracker.states_per_s == 1000.0  # first sample seeds
        tracker.note_rate(2000.0)
        assert tracker.states_per_s == pytest.approx(
            1000.0 + ProgressTracker.ALPHA * 1000.0
        )
        tracker.note_rate(0.0)  # non-positive samples are ignored
        assert tracker.states_per_s == pytest.approx(1300.0)

    def test_shard_done_accumulates_states_and_rate(self, fake_clock):
        tracker = ProgressTracker()
        tracker.shard_submitted(2)
        tracker.shard_done(states=500, elapsed=0.5)
        tracker.shard_done(states=0, elapsed=0.0)
        assert tracker.shards_submitted == 2
        assert tracker.shards_done == 2
        assert tracker.states == 500
        assert tracker.states_per_s == 1000.0

    def test_eta_extrapolates_unit_rate(self, fake_clock):
        tracker = ProgressTracker(units_total=4)
        assert tracker.eta_s(10.0) is None  # no units yet: unknowable
        tracker.unit_done(0, "proved")
        assert tracker.eta_s(10.0) == pytest.approx(30.0)  # 3 left @ 10s/unit
        for index in (1, 2, 3):
            tracker.unit_done(index, "proved")
        assert tracker.eta_s(40.0) == 0.0

    def test_build_folds_registry_and_bumps_seq(self, fake_clock):
        registry = metrics.MetricsRegistry()
        registry.counter("campaign.units").inc(2)
        registry.gauge("campaign.capacity").set(4)
        registry.gauge("never.set")  # value None: excluded
        tracker = ProgressTracker(
            experiment="mini", units_total=2, backend="serial", capacity=1
        )
        fake_clock["mono"] += 5.0
        snapshot = tracker.build(registry=registry)
        assert snapshot.seq == 1
        assert snapshot.uptime_s == pytest.approx(5.0)
        assert snapshot.counters == (("campaign.units", 2),)
        assert snapshot.gauges == (("campaign.capacity", 4),)
        assert tracker.build().seq == 2


class TestSnapshotJson:
    def test_round_trip_identity(self):
        snapshot = make_snapshot()
        data = snapshot_to_json(snapshot)
        assert data["type"] == "status"
        # The payload must be pure JSON (the watcher never unpickles).
        rebuilt = snapshot_from_json(json.loads(json.dumps(data)))
        assert rebuilt == snapshot

    def test_round_trip_with_none_fields(self):
        snapshot = make_snapshot(eta_s=None)
        rebuilt = snapshot_from_json(snapshot_to_json(snapshot))
        assert rebuilt == snapshot
        assert rebuilt.eta_s is None

    def test_done_property(self):
        assert make_snapshot(units_done=8).done
        assert not make_snapshot(units_done=7).done
        assert not make_snapshot(units_total=0, units_done=0).done

    def test_finished_snapshot_reads_done(self):
        snapshot = make_snapshot(units_total=0, units_done=0, finished=True)
        assert snapshot.done
        assert snapshot_from_json(snapshot_to_json(snapshot)).done


class TestPublisher:
    def test_interval_gates_and_force_overrides(self, fake_clock):
        tracker = ProgressTracker(units_total=1)
        publisher = StatusPublisher(tracker, interval=1.0)
        assert publisher.tick() is not None  # first tick always publishes
        assert publisher.tick() is None  # same instant: gated
        assert publisher.tick(force=True) is not None
        fake_clock["mono"] += 1.5
        assert publisher.tick() is not None

    def test_updates_last_snapshot_surfaces(self, fake_clock):
        import repro.obs.live as live

        tracker = ProgressTracker(units_total=1)
        publisher = StatusPublisher(tracker, interval=0.0)
        snapshot = publisher.tick()
        assert publisher.last_snapshot is snapshot
        assert live.LAST_SNAPSHOT is snapshot

    def test_status_json_atomic_rewrite(self, fake_clock, tmp_path):
        path = tmp_path / "status.json"
        tracker = ProgressTracker(experiment="mini", units_total=1)
        publisher = StatusPublisher(tracker, interval=0.0, path=str(path))
        publisher.tick()
        fake_clock["mono"] += 1.0
        tracker.unit_done(0, "proved")
        publisher.tick()
        data = json.loads(path.read_text())
        assert data["seq"] == 2
        assert data["units_done"] == 1
        assert snapshot_from_json(data).done
        # No temp files left behind by the write-then-rename dance.
        assert [p.name for p in tmp_path.iterdir()] == ["status.json"]

    def test_unwritable_path_degrades_without_raising(self, fake_clock, capsys):
        tracker = ProgressTracker(units_total=1)
        publisher = StatusPublisher(
            tracker, interval=0.0, path="/nonexistent-dir/status.json"
        )
        assert publisher.tick() is not None  # must not raise
        assert publisher.tick() is not None
        err = capsys.readouterr().err
        assert err.count("status-json: cannot write") == 1  # warned once

    def test_write_status_json_trailing_newline(self, tmp_path):
        path = tmp_path / "s.json"
        write_status_json(str(path), make_snapshot())
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["experiment"] == "fig2-mini"
        assert not os.path.exists(f"{path}.tmp.{os.getpid()}")
