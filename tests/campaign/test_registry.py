"""Tests for the picklable core-factory table."""

from __future__ import annotations

import pickle

import pytest

from repro.campaign.registry import CORE_FACTORIES, CoreSpec, core_spec
from repro.isa.params import MachineParams
from repro.uarch.config import Defense
from repro.uarch.simple_ooo import simple_ooo

PARAMS = MachineParams(imem_size=3)


def test_builtin_factories_are_registered():
    assert set(CORE_FACTORIES) == {"boom", "inorder", "ridecore", "simple_ooo"}


def test_spec_builds_the_same_core_as_the_direct_call():
    spec = core_spec("simple_ooo", defense=Defense.DELAY_SPECTRE, params=PARAMS)
    direct = simple_ooo(Defense.DELAY_SPECTRE, params=PARAMS)
    built = spec()
    assert built.config == direct.config
    assert spec.params == PARAMS


def test_spec_is_picklable_and_survives_a_roundtrip():
    spec = core_spec("boom")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone().params == spec().params


def test_spec_kwargs_are_order_insensitive():
    a = CoreSpec("simple_ooo", (("rob_size", 8), ("params", PARAMS)))
    b = CoreSpec("simple_ooo", (("params", PARAMS), ("rob_size", 8)))
    assert a == b and hash(a) == hash(b)


def test_unknown_factory_rejected_at_construction():
    with pytest.raises(
        ValueError, match="known: boom, inorder, ridecore, simple_ooo"
    ):
        core_spec("z80")


def test_describe_names_the_factory_and_kwargs():
    text = core_spec("simple_ooo", rob_size=8).describe()
    assert text.startswith("simple_ooo(") and "rob_size=8" in text
