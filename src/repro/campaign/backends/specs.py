"""Content-addressed task specs: ship the heavy part of a shard once.

Every search shard of one campaign unit pickles the same
:class:`repro.core.verifier.VerificationTask` minus two small fields:
the root list (which root this shard covers) and the search limits
(deadline-stamped per campaign).  The encoding space, core spec and
contract -- the *spec* -- dominate the pickle, and re-shipping them per
shard is pure dispatch overhead once a worker is warm.

The hot-worker protocol built here splits the task
(:func:`split_spec`), fingerprints the spec with
:func:`spec_fingerprint` (content-addressed: equal specs collapse to
one cache entry no matter which unit produced them),
and wraps shards in a :class:`ShardEnvelope` that carries the spec
inline on a worker's *first* encounter and the bare fingerprint
thereafter.  Executors keep a per-process cache
(:func:`execute_envelope`); a cold process receiving a bare fingerprint
answers :class:`SpecMiss` and the dispatching side re-sends with the
spec attached -- a one-round-trip degradation, never an error.

Soundness: the fingerprint is only a *cache key*; the spec bytes a
worker rehydrates with were pickled from the same task object the
scheduler planned, so ``join_spec(spec, roots, limits)`` rebuilds a
field-identical task and shard outcomes stay pure functions of their
items (the campaign bit-identity contract is untouched).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.campaign.backends.base import WorkItem
from repro.obs.recorder import Recorder, TracedOutcome

if TYPE_CHECKING:
    from repro.core.verifier import VerificationTask


def spec_fingerprint(spec) -> int:
    """128-bit content fingerprint of a spec (cache key, never truth).

    A collision here would rehydrate a shard against the *wrong unit's*
    spec -- silently wrong results, not just a pruned state -- so the
    margin is pushed to 2^-128.
    """
    digest = blake2b(pickle.dumps(spec, protocol=4), digest_size=16).digest()
    return int.from_bytes(digest, "little")


class SpecMiss:
    """A worker process lacked the spec a bare-fingerprint shard named.

    Delivered in place of an outcome; the dispatching side re-sends the
    same ticket with the spec attached.  Picklable (crosses the pool
    like any result).
    """

    __slots__ = ("spec_fp",)

    def __init__(self, spec_fp: int):
        self.spec_fp = spec_fp

    def __repr__(self) -> str:
        return f"SpecMiss({self.spec_fp:#x})"


def split_spec(task: "VerificationTask"):
    """Split a task into (spec, roots, limits).

    The spec normalizes ``roots`` to ``None`` and ``limits`` to the
    default, so every shard of one unit -- root batch, seeded batch or
    steal racer, whatever deadline was stamped -- shares one spec (and
    one fingerprint).
    """
    from repro.mc.explorer import SearchLimits

    spec = replace(task, roots=None, limits=SearchLimits())
    return spec, task.roots, task.limits


def join_spec(spec: "VerificationTask", roots, limits) -> "VerificationTask":
    """Rebuild the exact task :func:`split_spec` took apart."""
    return replace(spec, roots=roots, limits=limits)


@dataclass(frozen=True)
class ShardEnvelope:
    """What actually crosses the pool boundary per shard.

    Plain envelopes (``spec_fp is None``) carry the item whole -- the
    fuzz path and backends that opt out of spec caching.  Spec-backed
    envelopes strip ``item.task`` to ``None`` and carry the split parts:
    ``spec`` inline on a cold send, ``None`` once the receiver is warm.
    """

    item: WorkItem
    spec_fp: int | None = None
    spec: "VerificationTask | None" = None
    roots: Any = None
    limits: Any = None
    #: Whether the dispatching campaign is tracing: the executor then
    #: records the shard onto a scoped recorder and returns a
    #: :class:`repro.obs.recorder.TracedOutcome` so the spans ride home
    #: with the result.  Pure observability -- never affects outcomes.
    trace: bool = False


def make_envelope(
    item: WorkItem, *, with_spec: bool, trace: bool = False
) -> ShardEnvelope:
    """Wrap one item for dispatch.

    Items without a ``spec_fp`` (or without a task at all) wrap as plain
    envelopes; spec-backed items are split, shipping the spec inline iff
    ``with_spec`` (the receiver has not seen this fingerprint yet).
    ``trace`` stamps the envelope's tracing flag (see
    :class:`ShardEnvelope`).
    """
    if item.spec_fp is None or item.task is None:
        return ShardEnvelope(item=item, trace=trace)
    spec, roots, limits = split_spec(item.task)
    return ShardEnvelope(
        item=replace(item, task=None),
        spec_fp=item.spec_fp,
        spec=spec if with_spec else None,
        roots=roots,
        limits=limits,
        trace=trace,
    )


#: Per-process spec cache: fingerprint -> spec task.  Lives in whatever
#: process runs :func:`execute_envelope` (the pool children); bounded by
#: the number of distinct unit specs a process ever sees, i.e. small.
_SPECS: dict[int, "VerificationTask"] = {}


def execute_envelope(env: ShardEnvelope):
    """Rehydrate and run one shard; the pools' pickle-by-reference entry.

    Returns the shard's outcome, or :class:`SpecMiss` when the envelope
    referenced a fingerprint this process has never been shipped.  A
    traced envelope (``env.trace``) instead returns the outcome wrapped
    in a :class:`repro.obs.recorder.TracedOutcome` carrying the spans
    the shard recorded -- the dispatching side unwraps *before* any
    result inspection, so the spec-miss retry and every verdict path see
    exactly what an untraced run would.
    """
    item = env.item
    if env.spec_fp is not None:
        spec = env.spec
        if spec is not None:
            _SPECS.setdefault(env.spec_fp, spec)
        else:
            spec = _SPECS.get(env.spec_fp)
            if spec is None:
                return SpecMiss(env.spec_fp)
        item = replace(item, task=join_spec(spec, env.roots, env.limits))
    if not env.trace:
        return item.run()
    recorder = Recorder(worker=f"pid{os.getpid()}")
    previous = obs.install(recorder)
    try:
        outcome = item.run()
    finally:
        obs.install(previous)
    return TracedOutcome(outcome, recorder.batch())
