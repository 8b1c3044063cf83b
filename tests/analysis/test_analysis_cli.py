"""The ``python -m repro.analysis`` gate: exit codes and output -- and
the repo itself staying clean.

These encode the CI contract: 0 on a clean tree, 1 on any finding, 2
for a missing path; every golden-violation fixture must fail the gate
and every near-miss fixture must pass it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FIXTURES = ["det_bad.py", "wire_bad.py", "snap_bad.py", "packed_bad.py"]
OK_FIXTURES = ["det_ok.py", "wire_ok.py", "snap_ok.py", "packed_ok.py"]


@pytest.mark.parametrize("name", BAD_FIXTURES)
def test_gate_fails_each_golden_fixture(name):
    assert main([str(FIXTURES / name)]) == 1


@pytest.mark.parametrize("name", OK_FIXTURES)
def test_gate_passes_each_near_miss_fixture(name):
    assert main([str(FIXTURES / name)]) == 0


def test_repo_package_is_clean():
    # The acceptance bar for the whole suite: the shipped repro package
    # has zero unwaived findings.
    assert main([]) == 0


def test_human_output_summarizes(capsys):
    main([str(FIXTURES / "det_ok.py")])
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_usage_errors_exit_2(capsys):
    assert main(["/no/such/path.py"]) == 2
    # The CLI takes paths only; any flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["--json"])
    assert exc.value.code == 2


def test_module_entry_point_exit_codes(tmp_path):
    # The real CI invocation: ``python -m repro.analysis`` in a fresh
    # interpreter, exit 1 on a planted violation, 2 on a missing path.
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    planted = tmp_path / "planted.py"
    planted.write_text("KEY = hash('planted')\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(planted)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "salted-hash" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(tmp_path / "missing.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
