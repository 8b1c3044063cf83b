"""Recorder semantics: nesting, no-op mode, batch absorption.

The recorder is the substrate every other observability promise rests
on, so its contracts get unit coverage of their own: span parenting
follows the context-manager stack, the uninstalled path allocates
nothing and reads no clock, and :meth:`Recorder.absorb` remaps ids and
keeps each worker's label exactly as the merged-trace acceptance check
assumes.
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.obs.recorder import (
    _NOOP,
    EventRecord,
    Recorder,
    SpanBatch,
    SpanRecord,
    TracedOutcome,
)


@pytest.fixture(autouse=True)
def _no_recorder():
    """Every test starts with tracing off."""
    previous = obs.install(None)
    yield
    obs.install(previous)


# ----------------------------------------------------------------------
# Span nesting and attributes
# ----------------------------------------------------------------------
def test_spans_nest_along_the_context_stack():
    rec = Recorder("main")
    with rec.span("outer"):
        with rec.span("inner"):
            rec.event("ping", n=1)
        rec.add_span("pretimed", 0.0, 1.0)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent_id is None
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    # add_span parents to whatever span is open at record time.
    assert by_name["pretimed"].parent_id == by_name["outer"].span_id
    [event] = rec.events
    assert event.span_id == by_name["inner"].span_id
    assert event.attrs == (("n", 1),)


def test_span_set_merges_mid_span_attributes():
    rec = Recorder("main")
    with rec.span("search", engine="vector") as sp:
        sp.set(kind="proved", states=7)
    [span] = rec.spans
    assert dict(span.attrs) == {
        "engine": "vector", "kind": "proved", "states": 7,
    }


def test_span_ids_are_unique_and_monotonic():
    rec = Recorder("main")
    with rec.span("a"):
        pass
    rec.add_span("b", 0.0, 0.0)
    with rec.span("c"):
        pass
    ids = [s.span_id for s in rec.spans]
    assert len(set(ids)) == 3
    assert ids == sorted(ids)


def test_counters_accumulate():
    rec = Recorder("main")
    rec.count("engine.states", 10)
    rec.count("engine.states", 5)
    rec.count("engine.visited")
    assert rec.counters == {"engine.states": 15, "engine.visited": 1}


# ----------------------------------------------------------------------
# The off path
# ----------------------------------------------------------------------
def test_module_functions_are_noops_when_uninstalled():
    assert obs.recorder() is None
    assert not obs.enabled()
    # span() hands back the one shared no-op context manager.
    assert obs.span("anything", deep=True) is _NOOP
    with obs.span("anything") as sp:
        sp.set(ignored=1)  # discarded, not an error
    obs.event("anything", n=1)
    obs.count("anything", 5)


def test_tracing_scope_installs_and_restores():
    outer = Recorder("outer")
    obs.install(outer)
    with obs.tracing("scoped") as rec:
        assert obs.recorder() is rec
        assert rec.worker == "scoped"
        with obs.span("inside"):
            pass
    assert obs.recorder() is outer
    assert [s.name for s in rec.spans] == ["inside"]
    assert not outer.spans


# ----------------------------------------------------------------------
# Batch absorption (the cross-process merge)
# ----------------------------------------------------------------------
def test_absorb_remaps_ids_into_the_local_space():
    coord = Recorder("main")
    with coord.span("campaign"):
        pass
    worker = Recorder("pid123")
    with worker.span("engine.search"):
        with worker.span("engine.wave"):
            worker.event("tick")
    worker.count("engine.states", 42)
    coord.absorb(worker.batch())
    by_name = {s.name: s for s in coord.spans}
    local_ids = {s.span_id for s in coord.spans}
    assert len(local_ids) == 3  # no collision with the coordinator's ids
    assert by_name["engine.search"].parent_id is None
    assert by_name["engine.wave"].parent_id == by_name["engine.search"].span_id
    [event] = coord.events
    assert event.span_id == by_name["engine.wave"].span_id
    assert coord.counters == {"engine.states": 42}
    # Each span keeps the label of the worker that recorded it.
    assert by_name["engine.search"].worker == "pid123"


def test_absorb_orphans_parents_recorded_outside_the_batch():
    """A span whose parent never crossed becomes a root, not a dangle."""
    batch = SpanBatch(
        worker="w",
        spans=(SpanRecord("s", 1.0, 2.0, 5, 999, "w"),),
        events=(EventRecord("e", 1.5, 999, "w"),),
    )
    coord = Recorder("main")
    coord.absorb(batch)
    assert coord.spans[0].parent_id is None
    assert coord.events[0].span_id is None


# ----------------------------------------------------------------------
# Pickle safety
# ----------------------------------------------------------------------
def test_batches_and_traced_outcomes_pickle_roundtrip():
    rec = Recorder("w")
    with rec.span("engine.search", engine="vector"):
        rec.event("tick", n=1)
    rec.count("engine.states", 3)
    wrapped = TracedOutcome(outcome="sentinel", batch=rec.batch())
    clone = pickle.loads(pickle.dumps(wrapped))
    assert clone.outcome == "sentinel"
    assert clone.batch == wrapped.batch
