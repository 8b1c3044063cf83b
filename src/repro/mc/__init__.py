"""Explicit-state model checker.

This package plays the role JasperGold plays in the paper: given a design
under verification (a :class:`repro.core.products.Product`), it checks the
leakage assertion under the contract assumption for *all* programs drawn
from an encoding space, all modeled secret pairs and all branch-predictor
behaviours.

- a failing assertion yields a **counterexample** (a concrete attack
  program plus the environment that triggers it),
- an exhausted search (visited-state closure over the finite domain)
  yields an **unbounded proof**,
- exceeding the wall-clock budget yields **timeout** -- the paper's third
  outcome (§5.3).

Instruction memory is symbolic: slots concretize lazily on first fetch by
branching the search.  Branch-predictor outputs are free inputs shared by
the two copies (an uninterpreted function of ``(pc, occurrence)``).
"""

from repro.mc.env import Environment
from repro.mc.explorer import Explorer, SearchLimits
from repro.mc.intern import deep_sizeof
from repro.mc.result import Counterexample, Outcome

__all__ = [
    "Counterexample",
    "Environment",
    "Explorer",
    "Outcome",
    "SearchLimits",
    "deep_sizeof",
]
