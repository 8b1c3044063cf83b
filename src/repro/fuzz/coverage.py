"""Coverage signatures over one concrete product trace.

The fuzzer steers mutation by microarchitectural *events*, not source
lines: a trace is summarized as a set of string keys derived from the
per-cycle :class:`repro.events.CycleOutput` stream of both machine
copies plus the shadow logic's phase.  Keys are strings so they sort,
JSON-serialize and merge deterministically across worker processes.

Key families (``side`` is the machine-copy index):

- ``squash/<side>`` -- a branch misprediction squashed the pipeline
  (the ``"mispredict"`` diagnostic event; squash and mispredict are one
  event in these cores).
- ``event/<side>/<name>`` -- other speculation events (``misaligned``,
  ``illegal`` -- the BOOM §7.1.4 mis-speculation sources).
- ``specload/<side>/<addr>`` -- a memory-bus address issued in a cycle
  where the two copies' bus traffic *differs*: a secret-dependent
  (transient-window) access, the misspeculated-load transmitter the
  Spectre pattern needs.
- ``bus/<side>/<addr>`` -- every memory-bus address (cache evictions
  and misses surface here: on cached cores only bus-visible accesses
  produce keys, so an eviction changes which addresses reappear).
- ``commits/<side>/<n>`` -- commit bandwidth actually exercised.
- ``phase/drain`` -- the shadow logic left lockstep: the two copies'
  microarchitectural traces deviated (a tentative leak under drain).
- ``halt/<side>`` -- the copy architecturally finished.
"""

from __future__ import annotations

from typing import Iterable


class CoverageMap:
    """A deterministic set of coverage keys with novelty accounting."""

    def __init__(self, keys: Iterable[str] = ()):
        self._keys: set[str] = set(keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def merge(self, keys: Iterable[str]) -> tuple[str, ...]:
        """Merge a batch's keys; returns the sorted novel subset."""
        novel = sorted(set(keys) - self._keys)
        self._keys.update(novel)
        return tuple(novel)

    def snapshot(self) -> frozenset[str]:
        """An immutable copy (shipped to workers as the known set)."""
        return frozenset(self._keys)

    def sorted_keys(self) -> tuple[str, ...]:
        """Every key, sorted (the deterministic report form)."""
        return tuple(sorted(self._keys))


def cycle_keys(outputs, phase_drain: bool) -> list[str]:
    """Coverage keys of one product cycle (see the module docstring)."""
    keys: list[str] = []
    diverged = (
        len(outputs) == 2 and outputs[0].membus != outputs[1].membus
    )
    for side, out in enumerate(outputs):
        for name in out.events:
            if name == "mispredict":
                keys.append(f"squash/{side}")
            else:
                keys.append(f"event/{side}/{name}")
        for addr in out.membus:
            keys.append(f"bus/{side}/{addr}")
            if diverged:
                keys.append(f"specload/{side}/{addr}")
        if out.commits:
            keys.append(f"commits/{side}/{len(out.commits)}")
        if out.halted:
            keys.append(f"halt/{side}")
    if phase_drain:
        keys.append("phase/drain")
    return keys
