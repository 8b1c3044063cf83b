"""The four shadowlint checkers, a fixed set."""

from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.packed_caps import PackedCapsChecker
from repro.analysis.checkers.snapshot_purity import SnapshotPurityChecker
from repro.analysis.checkers.wire_safety import WireSafetyChecker
from repro.analysis.framework import Checker

#: Every checker class, in checker-id order.
CHECKERS = (
    DeterminismChecker,
    PackedCapsChecker,
    SnapshotPurityChecker,
    WireSafetyChecker,
)


def built_in_checkers() -> list[Checker]:
    """Fresh instances of the four checkers, in checker-id order."""
    return [cls() for cls in CHECKERS]


__all__ = [
    "CHECKERS",
    "DeterminismChecker",
    "PackedCapsChecker",
    "SnapshotPurityChecker",
    "WireSafetyChecker",
    "built_in_checkers",
]
