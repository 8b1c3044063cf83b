"""Metrics registry: instruments, the JSON snapshot, and the telemetry shim.

The ``fill_telemetry`` shim is what keeps ``CampaignTelemetry`` readers
working after the registry superseded it -- a counter never recorded
reads 0.
"""

from __future__ import annotations

import json

from repro.campaign.scheduler import CampaignTelemetry
from repro.obs.metrics import MetricsRegistry, fill_telemetry, new_registry
from repro.obs import metrics


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_instruments_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert registry.time_series("s") is registry.time_series("s")


def test_new_registry_repoints_the_module_global():
    registry = new_registry()
    assert metrics.LAST_REGISTRY is registry
    other = new_registry()
    assert metrics.LAST_REGISTRY is other and other is not registry


def test_snapshot_is_json_safe_and_complete():
    registry = MetricsRegistry()
    registry.counter("campaign.shards").inc(4)
    registry.time_series("campaign.states_per_s").add(0.5, 1000.0)
    snapshot = json.loads(json.dumps(registry.snapshot()))
    assert set(snapshot) == {"counters", "series"}
    assert snapshot["counters"] == {"campaign.shards": 4}
    assert snapshot["series"]["campaign.states_per_s"] == [[0.5, 1000.0]]


# ----------------------------------------------------------------------
# The CampaignTelemetry compatibility shim
# ----------------------------------------------------------------------
def test_fill_telemetry_copies_shards_and_zero_fills():
    registry = MetricsRegistry()
    telemetry = CampaignTelemetry(backend="serial", capacity=1, shards=5)
    fill_telemetry(telemetry, registry)
    assert telemetry.shards == 0  # never recorded -> 0
    registry.counter("campaign.shards").inc(9)
    fill_telemetry(telemetry, registry)
    assert telemetry.shards == 9
    assert telemetry.steals == 0
    assert telemetry.steal_won == 0
