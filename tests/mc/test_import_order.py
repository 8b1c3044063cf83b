"""Each search module imports first, in a fresh interpreter.

``repro.mc.explorer`` imports the vector kernel, which imports
``repro.core.products``, and ``repro.core.verifier`` imports the
explorer; the ``repro.core`` package init imports none of its modules,
so no import order closes a cycle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = ["repro.mc.vector", "repro.mc.explorer", "repro.core.products"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
