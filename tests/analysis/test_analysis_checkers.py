"""Golden-violation corpus for the shadowlint checkers.

Each checker has one positive fixture (every rule fires at least once,
with exact counts pinned) and one near-miss negative fixture (the same
surface shapes, kept safe) under ``tests/analysis/fixtures/``.  The
negatives are the sharper half: they pin the checker's precision, so a
future "improvement" that starts flagging ``sorted(set(...))`` or a
``Protocol`` definition fails here before it floods the repo run.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import analyze, built_in_checkers

FIXTURES = Path(__file__).parent / "fixtures"

BAD_FIXTURES = [
    "det_bad.py",
    "wire_bad.py",
    "status_bad.py",
    "snap_bad.py",
    "packed_bad.py",
]
OK_FIXTURES = [
    "det_ok.py",
    "wire_ok.py",
    "status_ok.py",
    "snap_ok.py",
    "packed_ok.py",
]


def run(name: str, checker_id: str | None = None):
    checkers = None
    if checker_id is not None:
        checkers = [c for c in built_in_checkers() if c.id == checker_id]
        assert checkers, f"unknown checker id {checker_id!r}"
    return analyze([FIXTURES / name], checkers=checkers)


def rule_counts(report) -> Counter:
    return Counter((f.checker, f.rule) for f in report.findings)


class TestDeterminism:
    def test_positive_rules(self):
        report = run("det_bad.py", "determinism")
        assert rule_counts(report) == Counter(
            {
                ("determinism", "salted-hash"): 1,
                ("determinism", "id-value"): 1,
                ("determinism", "set-iter"): 2,
                ("determinism", "import-time-input"): 2,
                ("determinism", "global-random"): 1,
            }
        )

    def test_near_miss_negative(self):
        assert run("det_ok.py", "determinism").findings == []

    def test_findings_are_anchored(self):
        report = run("det_bad.py", "determinism")
        for finding in report.findings:
            assert finding.path.endswith("det_bad.py")
            assert finding.line >= 1
            assert f"{finding.checker}[{finding.rule}]" in finding.format()


class TestWireSafety:
    def test_positive_rules(self):
        report = run("wire_bad.py", "wire-safety")
        assert rule_counts(report) == Counter(
            {
                ("wire-safety", "local-class"): 1,
                ("wire-safety", "unslotted"): 2,  # LocalPayload + BareResult
                ("wire-safety", "lambda-field"): 1,
                ("wire-safety", "callable-field"): 1,
            }
        )

    def test_near_miss_negative(self):
        # wire_ok.py keeps a local, unslotted, lambda-carrying class --
        # but off the wire graph, where none of that matters.
        assert run("wire_ok.py", "wire-safety").findings == []


class TestStatusFrames:
    """The status replies a pool worker returns in place of an outcome
    (SpecMiss / ShardFailure) are pool roots: the same four rules fire
    on them."""

    def test_positive_rules(self):
        report = run("status_bad.py", "wire-safety")
        assert rule_counts(report) == Counter(
            {
                ("wire-safety", "local-class"): 1,
                ("wire-safety", "unslotted"): 2,  # LocalDetail + BareContext
                ("wire-safety", "lambda-field"): 1,
                ("wire-safety", "callable-field"): 1,
            }
        )

    def test_near_miss_negative(self):
        # Frozen replies pass; the lambda-carrying ProgressSnapshot and
        # the local helper stay invisible because nothing pickled into
        # or out of a pool worker names them.
        assert run("status_ok.py", "wire-safety").findings == []

    def test_real_status_roots_are_pool_replies(self):
        from repro.analysis.checkers.wire_safety import WIRE_ROOTS

        assert {"SpecMiss", "ShardFailure"} <= set(WIRE_ROOTS)
        # Live snapshots only ever leave the coordinator as JSON.
        assert "ProgressSnapshot" not in WIRE_ROOTS


class TestSnapshotPurity:
    def test_positive_rules(self):
        report = run("snap_bad.py", "snapshot-purity")
        counts = rule_counts(report)
        assert counts == Counter({("snapshot-purity", "interned-mutation"): 3})

    def test_near_miss_negative(self):
        # Copies, pre-freeze scratch, and unrelated containers all mutate
        # without tripping the taint.
        assert run("snap_ok.py", "snapshot-purity").findings == []


class TestPackedCaps:
    def test_positive_rules(self):
        report = run("packed_bad.py", "packed-caps")
        assert rule_counts(report) == Counter(
            {
                ("packed-caps", "missing-words"): 2,
                ("packed-caps", "snapshot-drift"): 3,
                ("packed-caps", "words-attr-drift"): 1,
                ("packed-caps", "unreported-dmem-read"): 2,
            }
        )

    def test_near_miss_negative(self):
        # A complete words core, a Protocol, a non-machine, a product,
        # a core that reports its data-memory reads and a non-machine
        # reading ``_dmem`` all pass.
        assert run("packed_ok.py", "packed-caps").findings == []


@pytest.mark.parametrize("name", BAD_FIXTURES)
def test_full_run_flags_every_bad_fixture(name):
    assert not analyze([FIXTURES / name]).clean


@pytest.mark.parametrize("name", OK_FIXTURES)
def test_full_run_passes_every_ok_fixture(name):
    report = analyze([FIXTURES / name])
    assert report.clean, [f.format() for f in report.findings]
