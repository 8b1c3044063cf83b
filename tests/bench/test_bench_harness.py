"""Smoke tests for the benchmark harness (cheap configurations only).

The real experiment budgets live in ``benchmarks/``; these tests check
that the harness plumbing (configs, table formatting, inventory, hunt
classification) behaves, using second-scale budgets.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench import boom_hunt, fig2, table1, table3
from repro.bench.configs import QUICK, SCALES, scale_by_name
from repro.bench.runner import format_table
from repro.bench.table2 import designs
from repro.core.contracts import sandboxing
from repro.uarch.config import Defense

TINY_SCALE = replace(
    QUICK,
    name="test",
    proof_timeout=30.0,
    attack_timeout=30.0,
    dom_timeout=30.0,
    hunt_timeout=30.0,
)


def test_scales_registry():
    assert scale_by_name("quick").name == "quick"
    assert set(SCALES) == {"quick", "paper"}
    with pytest.raises(KeyError):
        scale_by_name("galactic")


def test_format_table_alignment():
    text = format_table(
        "demo", ["col-a", "b"], [("row", ["x", "yy"]), ("longer-row", ["1", "2"])]
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert all("|" in line for line in lines[1:] if "-" * 5 not in line)


def test_format_table_with_zero_rows_renders_the_header():
    """Regression: ``max()`` over an unpacked empty generator raised
    ``TypeError`` when a campaign cut short by its budget produced an
    empty grid."""
    text = format_table("empty", ["col-a", "b"], [])
    lines = text.splitlines()
    assert lines[0] == "empty"
    assert "col-a" in lines[1] and "b" in lines[1]
    assert set(lines[2]) == {"-"}
    assert len(lines) == 3


def test_table1_inventory_reports_all_cores():
    rows = table1.run()
    assert len(rows) == 5
    text = table1.format_rows(rows)
    assert "SimpleOoO" in text and "shadow logic" in text


def test_table2_designs_cover_the_paper_columns():
    names = [d.name for d in designs()]
    assert names == ["Sodor", "SimpleOoO-S", "SimpleOoO", "Ridecore", "BOOM"]
    secure = {d.name for d in designs() if d.secure}
    assert secure == {"Sodor", "SimpleOoO-S"}


def test_table3_single_defense_cell():
    results = table3.run(TINY_SCALE, defenses=[Defense.NONE])
    assert results[(Defense.NONE, "sandboxing")].attacked
    assert results[(Defense.NONE, "constant-time")].attacked


def test_fig2_space_reaches_the_secret_for_every_memory_size():
    for mem_size in (2, 4, 8, 16):
        space = fig2._space(mem_size, 4)
        imms = {inst.c for inst in space.instructions() if inst.op.name == "LOAD"}
        assert (mem_size - 1) in imms  # the last (secret) cell is reachable


def test_boom_hunt_first_round_classifies_a_source():
    steps = boom_hunt.run(sandboxing(), TINY_SCALE, max_rounds=1)
    assert len(steps) == 1
    assert steps[0].outcome.attacked
    assert steps[0].source in ("misaligned", "illegal", "mispredict")
