"""CLI for shadowlint: ``python -m repro.analysis [PATH ...]``.

Exit status 0 when every finding is fixed or waived inline, 1 on any
finding, 2 when a path does not exist.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import analyze, default_roots


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static determinism & soundness lints (shadowlint).",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    args = parser.parse_args(argv)

    paths = args.paths or default_roots()
    for path in paths:
        if not Path(path).exists():
            print(f"no such path: {path}", file=sys.stderr)
            return 2

    report = analyze(paths)
    for finding in report.findings:
        print(finding.format())
    print(
        f"{len(report.findings)} finding(s) "
        f"({report.waived} waived, {report.files} files)"
    )
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
