"""Tests for secret-pair enumeration and exclusion assumptions."""

from __future__ import annotations

import itertools

import pytest

from repro.campaign.registry import core_spec
from repro.core.assumptions import (
    no_illegal_accesses,
    no_misaligned_accesses,
    no_mispredicted_branches,
)
from repro.core.contracts import sandboxing
from repro.core.secrets import secret_memory_pairs
from repro.core.verifier import VerificationTask, verify
from repro.isa.encoding import EncodingSpace
from repro.isa.params import MachineParams
from repro.mc.explorer import Root, SearchLimits
from repro.uarch.config import Defense

TINY_PARAMS = MachineParams(imem_size=3)

TINY = EncodingSpace(
    load_rd=(1, 2),
    load_rs=(0, 1),
    load_imm=(0, 3),
    branch_rs=(0,),
    branch_off=(2,),
)


def test_all_mode_is_complete_for_small_domains():
    params = MachineParams(value_bits=1, mem_size=4, n_public=2)
    roots = secret_memory_pairs(params, "all")
    # 2 secret cells x 1-bit values: C(4, 2) unordered image pairs.
    assert len(roots) == 6
    assert len({r.label for r in roots}) == 6


def test_single_mode_varies_one_cell():
    params = MachineParams(value_bits=2, mem_size=4, n_public=2)
    roots = secret_memory_pairs(params, "single")
    assert len(roots) == 2 * 6  # 2 cells x C(4,2) value pairs
    for root in roots:
        left, right = root.dmem_pair
        assert left[: params.n_public] == right[: params.n_public]
        differing = [i for i in range(4) if left[i] != right[i]]
        assert len(differing) == 1


def _tiny_task(defense: Defense, root: Root) -> VerificationTask:
    return VerificationTask(
        core_factory=core_spec("simple_ooo", defense=defense, params=TINY_PARAMS),
        contract=sandboxing(),
        space=TINY,
        roots=[root],
        limits=SearchLimits(timeout_s=90),
    )


def test_copy_swap_symmetry_justifies_unordered_roots():
    """Root ``(A, B)`` and its swap ``(B, A)`` are verified separately
    and agree: the verdict on both a proof and an attack task, and on
    the proof task the explored-state count -- copy swap maps each
    root's reachable set one-to-one onto its mirror's, which is why the
    ``"all"`` mode may enumerate unordered pairs only."""
    roots = secret_memory_pairs(TINY_PARAMS, "single")
    kinds: dict[Defense, set[str]] = {}
    for defense in (Defense.DELAY_FUTURISTIC, Defense.NONE):
        for root in roots:
            first, second = root.dmem_pair
            swapped = Root(f"{root.label}-swapped", (second, first))
            forward = verify(_tiny_task(defense, root))
            mirror = verify(_tiny_task(defense, swapped))
            assert forward.kind == mirror.kind, (defense, root.label)
            if defense is Defense.DELAY_FUTURISTIC:
                assert forward.stats.states == mirror.stats.states, root.label
            kinds.setdefault(defense, set()).add(forward.kind)
    # Both verdict kinds are exercised, so the symmetry covers each.
    assert kinds[Defense.DELAY_FUTURISTIC] == {"proved"}
    assert "attack" in kinds[Defense.NONE]


@pytest.mark.parametrize("mode", ["everything", "ordered"])
def test_unknown_mode_rejected(mode):
    with pytest.raises(ValueError):
        secret_memory_pairs(MachineParams(), mode)


def test_auto_mode_backs_off_to_single_for_large_domains():
    params = MachineParams(value_bits=2, mem_size=4, n_public=2)
    assert len(secret_memory_pairs(params, "auto")) == len(
        secret_memory_pairs(params, "single")
    )
    small = MachineParams(value_bits=1, mem_size=4, n_public=2)
    assert len(secret_memory_pairs(small, "auto")) == len(
        secret_memory_pairs(small, "all")
    )


def test_public_values_override():
    params = MachineParams(value_bits=1, mem_size=4, n_public=2)
    roots = secret_memory_pairs(params, "single", public_values=(1, 1))
    assert all(r.dmem_pair[0][:2] == (1, 1) for r in roots)
    with pytest.raises(ValueError):
        secret_memory_pairs(params, "single", public_values=(1,))


def test_no_secret_region_yields_no_roots():
    params = MachineParams(value_bits=1, mem_size=4, n_public=4)
    assert secret_memory_pairs(params, "all") == []


def test_pairs_always_differ_and_share_public():
    # The whole domain is 16 points, so it is enumerated rather than
    # sampled: exhaustive, and free of any per-example deadline.
    for mode, value_bits, n_public in itertools.product(
        ("all", "single"), (1, 2), range(4)
    ):
        params = MachineParams(
            value_bits=value_bits, mem_size=4, n_public=n_public
        )
        for root in secret_memory_pairs(params, mode):
            left, right = root.dmem_pair
            assert left != right
            assert left[:n_public] == right[:n_public]
            assert all(0 <= v < params.value_domain for v in left + right)


def test_assumption_excludes_matching_events():
    assumption = no_misaligned_accesses()
    assert assumption.excludes(("misaligned",))
    assert assumption.excludes(("mispredict", "misaligned"))
    assert not assumption.excludes(("mispredict",))
    assert not assumption.excludes(())


def test_assumption_names_are_distinct():
    names = {
        a.name
        for a in (
            no_misaligned_accesses(),
            no_illegal_accesses(),
            no_mispredicted_branches(),
        )
    }
    assert len(names) == 3
