"""Per-layer timing from outside the program.

:class:`LayerTimer` replaces public methods of each layer with timing
wrappers for the duration of one traced leg; nothing inside ``src/``
changes.  Every wrapped call pushes a frame on one stack, so a frame's
*self* time is its duration minus the wrapped calls nested in it:

- ``core.step_cycle.self_s`` is product ``step_cycle`` time minus the
  uarch, ISA and shadow-logic calls it makes;
- ``mc.search.self_s`` is ``Explorer.run`` time minus every wrapped call
  below it (the search loop, memo, visited table and interning).

The wrappers sit at the core and shadow-logic level because the vector
engine steps cores and ``ContractShadowLogic.on_cycle`` directly, never
through ``ShadowProduct.step_cycle``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import repro.fuzz.work as fuzz_work
from repro.core.products import BaselineProduct, ShadowProduct
from repro.core.shadow import ContractShadowLogic
from repro.fuzz.generator import ProgramSampler
from repro.isa.machine import IsaMachine
from repro.mc.explorer import Explorer
from repro.uarch.inorder import InOrderCore
from repro.uarch.ooo_base import OoOCore

#: (owner, attribute, layer) of every wrapped callable.
TIMED = (
    (OoOCore, "step", "uarch.step"),
    (InOrderCore, "step", "uarch.step"),
    (OoOCore, "snapshot", "uarch.snapshot"),
    (OoOCore, "snapshot_words", "uarch.snapshot"),
    (InOrderCore, "snapshot", "uarch.snapshot"),
    (OoOCore, "restore", "uarch.restore"),
    (OoOCore, "restore_words", "uarch.restore"),
    (InOrderCore, "restore", "uarch.restore"),
    (IsaMachine, "step", "isa.step"),
    (ShadowProduct, "step_cycle", "core.step_cycle"),
    (BaselineProduct, "step_cycle", "core.step_cycle"),
    (ContractShadowLogic, "on_cycle", "core.shadow"),
    (fuzz_work, "run_trace", "fuzz.trace"),
    (ProgramSampler, "fresh", "fuzz.generate"),
    (ProgramSampler, "mutate", "fuzz.generate"),
)


class LayerTimer:
    """Installs the wrappers and accumulates calls, time and self time."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.search_by_engine: dict[str, float] = defaultdict(float)
        self.vector_steps = 0
        self.vector_transitions = 0
        self.visited_bytes = 0
        self.footprint_s = 0.0
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    def _timed(self, layer: str, fn):
        stack = self._stack
        active = self._active
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of wrapped calls nested in this one
            stack.append(frame)
            active[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                calls[layer] += 1
                self_time[layer] += dt - frame[0]
                if not active[layer]:  # count re-entrant calls once
                    total[layer] += dt

        return wrapper

    def _search(self, fn):
        timed = self._timed("mc.search", fn)
        timer = self

        def run(explorer, *args, **kwargs):
            steps = timer.calls["uarch.step"]
            t0 = time.perf_counter()
            outcome = timed(explorer, *args, **kwargs)
            timer.search_by_engine[explorer.engine] += time.perf_counter() - t0
            if explorer.engine == "vector":
                timer.vector_steps += timer.calls["uarch.step"] - steps
                timer.vector_transitions += outcome.stats.transitions
            # The deep size walk is bookkeeping, not search: time it
            # apart so it never counts as tracing overhead.
            t1 = time.perf_counter()
            _, nbytes = explorer.visited_footprint()
            timer.visited_bytes = max(timer.visited_bytes, nbytes)
            timer.footprint_s += time.perf_counter() - t1
            return outcome

        return run

    def install(self) -> None:
        for owner, attr, layer in TIMED:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._timed(layer, original))
        for attr in ("run", "run_seeded"):
            original = getattr(Explorer, attr)
            self._undo.append((Explorer, attr, original))
            setattr(Explorer, attr, self._search(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this timer owns, by benchmark name."""
        out: dict[str, float] = {}
        for layer in ("uarch.step", "uarch.snapshot", "uarch.restore",
                      "isa.step", "core.shadow"):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.total[layer]
        for layer in ("fuzz.trace", "fuzz.generate", "mc.search"):
            out[f"{layer}.s"] = self.total[layer]
        out["core.step_cycle.calls"] = self.calls["core.step_cycle"]
        out["core.step_cycle.self_s"] = self.self_time["core.step_cycle"]
        out["mc.search.self_s"] = self.self_time["mc.search"]
        out["mc.search.vector.s"] = self.search_by_engine["vector"]
        out["mc.search.object.s"] = self.search_by_engine["object"]
        out["mc.vector.transitions"] = self.vector_transitions
        out["mc.memo_miss_ratio"] = (
            self.vector_steps / self.vector_transitions
            if self.vector_transitions else 0.0
        )
        out["mc.visited_bytes"] = self.visited_bytes
        out["trace.footprint_s"] = self.footprint_s
        return out
