"""The search and the fuzzer run without numpy.

Nothing under ``src/`` imports numpy: the visited set is a plain
``set`` of key rows.  A subprocess with numpy's import blocked
(``sys.modules["numpy"] = None`` makes ``import numpy`` raise) runs a
tiny multi-root proof, its insecure twin's attack and one fuzz shard,
and must print exactly what the same script prints with numpy
importable.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import dataclasses
import sys

if sys.argv[1] == "block":
    sys.modules["numpy"] = None

from repro.campaign.registry import core_spec
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask, verify
from repro.fuzz.configs import preset_config
from repro.fuzz.work import FuzzShard
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import SearchLimits
from repro.uarch.config import Defense

space = EncodingSpace(
    load_rd=(1, 2), load_rs=(0, 1), load_imm=(0, 3),
    branch_rs=(0,), branch_off=(2,),
)
for defense, imem_size in ((Defense.DELAY_FUTURISTIC, 2), (Defense.NONE, 3)):
    task = VerificationTask(
        core_factory=core_spec(
            "simple_ooo", defense=defense,
            params=MachineParams(imem_size=imem_size),
        ),
        contract=sandboxing(),
        space=space,
        limits=SearchLimits(timeout_s=90),
    )
    outcome = verify(task)
    print(outcome.kind, outcome.stats, outcome.counterexample)
shard = FuzzShard(
    config=preset_config("fuzz-mini").config,
    round_index=0,
    batch_index=0,
    n_programs=8,
    stop_on_leak=False,
)
print(dataclasses.replace(shard.run(), elapsed=0.0))
print("numpy" in sys.modules and sys.modules["numpy"] is not None)
"""


def _run(mode: str) -> list[str]:
    src_root = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_search_and_fuzz_run_with_numpy_blocked():
    blocked = _run("block")
    allowed = _run("allow")
    *results, numpy_loaded = blocked
    assert numpy_loaded == "False"
    assert results[0].startswith("proved ")
    assert results[1].startswith("attack ")
    assert results == allowed[:-1]
