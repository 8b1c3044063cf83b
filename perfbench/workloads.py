"""The benchmark's workloads, built through the package's public entry points.

Every workload runs the same public call at every leg: the campaign grids
go through :func:`repro.bench.runner.run_units`, the fuzz workload through
:func:`repro.fuzz.campaign.run_fuzz`.  Only the worker count differs
between the serial leg (``w1``) and the two-worker leg (``w2``).
"""

from __future__ import annotations

import random

from repro.bench import fig2, table2
from repro.bench.configs import QUICK
from repro.bench.runner import run_units
from repro.campaign.log import outcome_to_json
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import preset_config
from repro.mc.packed import resolve_engine

GRIDS = {"table2-grid": table2.units, "fig2-sweep": fig2.units}

#: Fuzz campaign shape: rounds x batches x programs per batch.
FUZZ_ROUNDS = 4
FUZZ_BATCHES = 2
FUZZ_BATCH_SIZE = 4096


class GridWorkload:
    """A model-checked unit grid; the seed only permutes submission order.

    Per-cell results are independent of submission order, so every seed
    must reproduce the same verdicts, counts and counterexamples; only
    scheduling and cache order move.
    """

    kind = "grid"

    def __init__(self, name: str, seed: int):
        units = GRIDS[name](QUICK)
        random.Random(seed).shuffle(units)
        self.units = units
        # Root enumeration and engine resolution are part of set-up.
        self.root_shards = sum(len(u.task.build_roots()) for u in units)
        self.engines = {
            "/".join(u.key): resolve_engine(
                "auto", u.task.build_product(), u.task.shared_visited
            )
            for u in units
        }

    def run(self, n_workers: int):
        return run_units(self.units, n_workers=n_workers)

    @staticmethod
    def cells(by_key) -> dict:
        """Canonical per-cell records: everything but the elapsed time."""
        cells = {}
        for key, outcome in by_key.items():
            record = outcome_to_json(outcome)
            record.pop("elapsed")
            cells["/".join(key)] = record
        return dict(sorted(cells.items()))

    @staticmethod
    def elapsed(by_key) -> dict:
        return {"/".join(k): o.elapsed for k, o in sorted(by_key.items())}


class FuzzWorkload:
    """Seeded contract fuzzing of the Delay-spectre SimpleOoO core."""

    kind = "fuzz"

    def __init__(self, name: str, seed: int):
        self.config = preset_config("fuzz-defended", seed).config
        # Set-up covers what every fuzz shard builds first: the product
        # and the secret-pair roots.
        self.config.build_product()
        self.root_shards = len(self.config.build_roots())
        self.engines = {}

    def run(self, n_workers: int):
        return run_fuzz(
            self.config,
            n_batches=FUZZ_BATCHES,
            batch_size=FUZZ_BATCH_SIZE,
            max_rounds=FUZZ_ROUNDS,
            stop_on_leak=False,
            minimize=False,
            backend=None if n_workers == 1 else "process",
            n_workers=n_workers,
        )

    @staticmethod
    def cells(report) -> dict:
        """Canonical per-round records plus the campaign totals."""
        cells = {
            f"round-{r.index}": {
                "programs": r.programs,
                "cycles": r.cycles,
                "verdicts": dict(sorted(r.verdicts.items())),
                "new_coverage": r.new_coverage,
                "truncated": r.truncated,
                "leaks": r.leaks,
            }
            for r in report.rounds
        }
        cells["campaign"] = {
            "programs": report.programs,
            "coverage": len(report.coverage),
            "corpus_size": report.corpus_size,
            "leak": report.leak is not None,
        }
        return cells

    @staticmethod
    def elapsed(report) -> dict:
        """Per-round durations (round outcomes carry cumulative time)."""
        out, previous = {}, 0.0
        for r in report.rounds:
            out[f"round-{r.index}"] = r.elapsed - previous
            previous = r.elapsed
        return out


def build(name: str, seed: int):
    if name in GRIDS:
        return GridWorkload(name, seed)
    if name == "fuzz-defended":
        return FuzzWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")
