"""Benchmark harness: one module per table/figure of the paper.

Each module exposes ``run(scale)`` returning structured rows and a
``format_rows`` helper that prints them the way the paper's table reads.
``scale`` selects the experiment budget:

- ``"quick"`` (default): laptop-scale budgets used by the committed
  benchmark suite; encoding spaces and timeouts are recorded per
  experiment in EXPERIMENTS.md.
- ``"paper"``: larger spaces and budgets for closer calibration runs.

The pytest-benchmark wrappers in ``benchmarks/`` call these modules and
assert the qualitative outcome (who proves, who attacks, who times out).
"""

from repro.bench.runner import format_table

__all__ = ["format_table"]
