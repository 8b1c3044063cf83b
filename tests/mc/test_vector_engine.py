"""Unit coverage for the vector engine's numpy substrate.

Two layers, matching :mod:`repro.mc.vector`'s structure:

- the packed blob really is numpy-consumable: ``np.frombuffer(blob,
  dtype='<i8')`` recovers the exact word array for every
  ``packed_capable`` core configuration (the :mod:`repro.mc.packed`
  docstring's promise, exercised here rather than trusted);
- :class:`repro.mc.vector.VectorVisited` / ``FrontierArena``: randomized
  insert/probe cross-checked against a Python ``set``, forced fingerprint
  collisions, growth across several doublings, and the lossy-drop
  counter when the table is capacity-pinned.

The search-level contract (bit-identical verdicts/stats) lives in
``test_engine_equivalence.py``; this file owns the data structures.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.contracts import sandboxing
from repro.core.products import ShadowProduct
from repro.events import FetchBundle
from repro.isa.instruction import HALT, Opcode
from repro.isa.params import MachineParams
from repro.mc.packed import PackedCodec, decode_word, encode_word
from repro.mc.vector import FrontierArena, VectorVisited
from repro.uarch.config import CacheConfig, Defense
from repro.uarch.simple_ooo import simple_ooo

from test_snapshot_roundtrip import DMEM_PAIR, PARAMS, PROGRAM, _fetch


# ---------------------------------------------------------------------------
# Packed blobs are numpy-consumable (the docstring claim)
# ---------------------------------------------------------------------------
_CACHE = CacheConfig(n_sets=1, block_words=2, hit_latency=1, miss_latency=3)

_CORE_CONFIGS = {
    "insecure": lambda: simple_ooo(Defense.NONE, params=PARAMS),
    "delay-spectre": lambda: simple_ooo(Defense.DELAY_SPECTRE, params=PARAMS),
    "dom-cache": lambda: simple_ooo(
        Defense.DOM_SPECTRE, params=PARAMS, cache=_CACHE
    ),
}


@pytest.mark.parametrize("config", sorted(_CORE_CONFIGS))
def test_packed_blob_is_numpy_consumable(config):
    """``np.frombuffer(blob, dtype='<i8')`` recovers the exact words the
    core emitted, on every reachable snapshot of a driven product."""
    product = ShadowProduct(_CORE_CONFIGS[config], sandboxing())
    assert product.packed_capable
    codec = PackedCodec(product)
    product.reset(DMEM_PAIR)
    for cycle in range(12):
        blob = codec.snapshot()
        words = []
        product.snapshot_words(words, codec.atoms)
        arr = np.frombuffer(blob, dtype="<i8")
        assert arr.tolist() == words, f"{config} cycle {cycle}"
        # Every word decodes against the codec's atom table and
        # re-encodes to itself (tag round-trip; bools legitimately
        # re-encode as their 0/1 scalar).
        for word in words:
            value = decode_word(word, codec.atoms.values)
            assert encode_word(value, codec.atoms) == (
                (1 if value else 0) << 2 if isinstance(value, bool) else word
            )
        # And the blob restores to a snapshot fixpoint.
        codec.restore(blob)
        assert codec.snapshot() == blob
        requests = product.fetch_requests()
        bundles = [None] * len(product.machines)
        for req in requests:
            bundles[req.slot] = _fetch(PROGRAM, req.pc, predicted=True)
        result = product.step_cycle(bundles)
        if result.failed or result.pruned or product.quiescent():
            break


# ---------------------------------------------------------------------------
# VectorVisited
# ---------------------------------------------------------------------------
def _visited(width=5, capacity=16, max_capacity=None):
    arena = FrontierArena()
    return VectorVisited(
        width=width, arena=arena, capacity=capacity, max_capacity=max_capacity
    )


def test_visited_randomized_against_python_set():
    """Insert/probe agreement with a plain set across several growth
    doublings."""
    visited = _visited()
    model: set[tuple] = set()
    rng = random.Random(42)
    universe = [
        tuple(rng.randrange(-64, 64) for _ in range(5)) for _ in range(4000)
    ]
    for _ in range(12000):
        row = universe[rng.randrange(len(universe))]
        fp = visited.fingerprint(row)
        assert visited.contains(row, fp) == (row in model)
        assert visited.add(row, fp) == (row not in model)
        model.add(row)
    assert visited.count == len(model)
    assert visited.dropped == 0


def test_visited_forced_fingerprint_collision():
    """Distinct rows sharing a fingerprint still resolve exactly (the
    stored-row confirm)."""
    visited = _visited(width=2)
    a, b, c = (1, 2), (3, 4), (5, 6)
    fp = visited.fingerprint(a)
    assert visited.add(a, fp)
    assert not visited.add(a, fp)
    # b inserted under a's fingerprint: a forced collision chain.
    assert visited.add(b, fp)
    assert visited.contains(a, fp) and visited.contains(b, fp)
    assert not visited.contains(c, fp)


def test_visited_growth_preserves_membership():
    visited = _visited(capacity=16)
    rows = [(i, i * 3, -i, i & 7, 11) for i in range(5000)]
    for row in rows:
        assert visited.add(row, visited.fingerprint(row))
    assert visited.count == len(rows)
    # Table grew well past the seed capacity; everything still probes.
    for row in rows:
        assert visited.contains(row, visited.fingerprint(row))


def test_visited_pinned_capacity_counts_drops():
    """A capacity-pinned table degrades to lossy (like the shared
    filter's full window) and counts what it dropped."""
    visited = _visited(capacity=8, max_capacity=8)
    inserted = 0
    for i in range(64):
        row = (i, i + 1, i + 2, i + 3, i + 4)
        if visited.add(row, visited.fingerprint(row)):
            inserted += 1
    assert inserted == 64  # adds still report first-visit
    assert visited.dropped > 0
    assert visited.count + visited.dropped == 64
    assert visited.count <= 8


# ---------------------------------------------------------------------------
# FrontierArena
# ---------------------------------------------------------------------------
def test_arena_append_extend_and_rows():
    arena = FrontierArena()
    width, index = arena.append((1, 2, 3))
    assert (width, index) == (3, 0)
    assert arena.row(3, 0).tolist() == [1, 2, 3]
    block = np.arange(12, dtype=np.int64).reshape(4, 3)
    start = arena.extend(3, block)
    assert start == 1
    assert arena.count(3) == 5
    assert arena.rows(3)[1:].tolist() == block.tolist()
    # A different width lives in its own bucket.
    arena.append((9, 9, 9, 9))
    assert arena.count(4) == 1 and arena.count(3) == 5
    assert arena.nbytes > 0

