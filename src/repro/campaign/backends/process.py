"""The process backend: a ``ProcessPoolExecutor`` fan-out.

This is the historical campaign executor extracted verbatim from the
scheduler: shards pickle into worker processes, results stream back as
futures complete.

Hot-worker dispatch: items stamped with a ``spec_fp`` cross the pool as
:class:`repro.campaign.backends.specs.ShardEnvelope` values -- the spec
(the heavy, per-unit-constant task fields) ships inline only for the
first ``max_workers`` sends per fingerprint, enough to warm every pool
child in the common case; later sends carry the bare fingerprint.  The
pool does not route tasks to specific children, so a cold child can
still draw a bare-fingerprint shard: it answers
:class:`~repro.campaign.backends.specs.SpecMiss` and the shard is
resubmitted under the same ticket with the spec attached (counted in
``spec_misses``; one extra round-trip, no result ever lost).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import replace
from typing import Iterator

from repro.campaign.backends.base import (
    ExecutionBackend,
    ShardFailure,
    WorkItem,
    resolve_workers,
)
from repro.campaign.backends.specs import (
    ShardEnvelope,
    SpecMiss,
    execute_envelope,
    make_envelope,
)
from repro import obs
from repro.obs.recorder import TracedOutcome
from repro.mc.result import Outcome


class ProcessPoolBackend(ExecutionBackend):
    """Fan shards across local worker processes."""

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self._max_workers = resolve_workers(max_workers)
        self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        self._futures: dict[int, Future] = {}
        self._envelopes: dict[int, ShardEnvelope] = {}
        self._specs: dict = {}  # fingerprint -> spec (for miss retries)
        self._spec_sent: dict[int, int] = {}  # fingerprint -> inline sends
        self._next_ticket = 0
        #: Observability: bare-fingerprint shards a cold child bounced.
        self.spec_misses = 0

    def capacity(self) -> int:
        return self._max_workers

    def outstanding(self) -> int:
        # Includes cancel()ed-but-already-running futures: they hold a
        # pool slot until they finish, idle capacity must not count them.
        return len(self._futures)

    def _wrap(self, item: WorkItem) -> ShardEnvelope:
        trace = obs.enabled()
        fp = item.spec_fp
        if fp is None or item.task is None:
            return make_envelope(item, with_spec=False, trace=trace)
        sent = self._spec_sent.get(fp, 0)
        with_spec = sent < self._max_workers
        env = make_envelope(item, with_spec=with_spec, trace=trace)
        if with_spec:
            self._spec_sent[fp] = sent + 1
            self._specs.setdefault(fp, env.spec)
        return env

    def submit_unit(self, item: WorkItem) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        env = self._wrap(item)
        self._envelopes[ticket] = env
        self._futures[ticket] = self._pool.submit(execute_envelope, env)
        return ticket

    def cancel(self, ticket: int) -> bool:
        future = self._futures.get(ticket)
        if future is None:
            return True  # already yielded or cancelled: nothing to do
        if future.cancel():
            del self._futures[ticket]
            self._envelopes.pop(ticket, None)
            return True
        return False  # already running; its (stale) result will arrive

    def as_completed(self) -> Iterator[tuple[int, Outcome]]:
        while self._futures:
            self._publish_status()
            by_future = {f: t for t, f in self._futures.items()}
            # The short timeout exists only so status snapshots keep
            # flowing during a long shard; completion order was already
            # nondeterministic and the merge is order-blind, so polling
            # cannot affect results.
            done, _ = wait(by_future, timeout=0.25, return_when=FIRST_COMPLETED)
            for future in done:
                ticket = by_future[future]
                # A future cancelled between ``wait`` and here never ran.
                if self._futures.pop(ticket, None) is None or future.cancelled():
                    self._envelopes.pop(ticket, None)
                    continue
                try:
                    outcome = future.result()
                except Exception as exc:
                    # The scheduler decides relevance (see ShardFailure):
                    # a raising serially-dead shard must not abort runs
                    # the serial engine would have completed.
                    outcome = ShardFailure(repr(exc))
                if isinstance(outcome, TracedOutcome):
                    # Unwrap before any result inspection.  Pool children
                    # share this host's monotonic clock, so the batch
                    # merges with its timestamps as recorded.
                    recorder = obs.recorder()
                    if recorder is not None:
                        recorder.absorb(outcome.batch)
                    outcome = outcome.outcome
                if isinstance(outcome, SpecMiss):
                    # A cold child drew a bare-fingerprint shard: retry
                    # the same ticket with the spec attached.
                    self.spec_misses += 1
                    env = replace(
                        self._envelopes[ticket],
                        spec=self._specs[outcome.spec_fp],
                    )
                    self._envelopes[ticket] = env
                    self._futures[ticket] = self._pool.submit(
                        execute_envelope, env
                    )
                    continue
                self._envelopes.pop(ticket, None)
                yield ticket, outcome

    def close(self) -> None:
        self._pool.shutdown(wait=True)
