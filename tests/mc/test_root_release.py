"""Per-root release of search state in a multi-root ``Explorer``.

The LIFO stack finishes root *i*'s subtree before popping any node of
root *i - 1*, and visited rows embed the root index, so the search
frees a root's visited partition -- and its node expansions, keyed by
the root's data-memory pair -- as soon as it moves on.  These
tests pin what survives a run: exactly the last-explored root's
partition, with statistics still equal to the frozen legacy engine.
"""

from __future__ import annotations

from repro.campaign.registry import core_spec
from repro.core.contracts import sandboxing
from repro.core.verifier import VerificationTask
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import Explorer, SearchLimits
from repro.mc.legacy import verify_legacy
from repro.uarch.config import Defense

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)


def _task() -> VerificationTask:
    return VerificationTask(
        core_factory=core_spec(
            "simple_ooo",
            defense=Defense.DELAY_FUTURISTIC,
            params=MachineParams(imem_size=2),
        ),
        contract=sandboxing(),
        space=TINY,
        limits=SearchLimits(timeout_s=90),
    )


def _explorer(task, roots) -> Explorer:
    return Explorer(task.build_product(), task.space, roots, task.limits)


def test_visited_holds_only_the_last_explored_root():
    task = _task()
    roots = task.build_roots()
    assert len(roots) > 1
    explorer = _explorer(task, roots)
    outcome = explorer.run()
    assert outcome.proved
    legacy = verify_legacy(task)
    assert outcome.stats == legacy.stats
    # Roots pop in reversed list order, so root 0 is explored last.
    last = _explorer(task, roots[:1]).run()
    keys, footprint_bytes = explorer.visited_footprint()
    assert keys == last.stats.states < outcome.stats.states
    assert footprint_bytes > 0
    vec = explorer._vector
    assert type(vec.visited) is set
    assert len(vec.visited) == last.stats.states
    assert {row[0] for row in vec.visited} == {0}
    assert {key[0] for key in vec._expand_memo} == {
        vec._pair_ids[roots[0].dmem_pair]
    }

