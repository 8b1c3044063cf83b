"""Campaign scheduling: root-batch sharding over pluggable backends.

The paper's evaluation (Tables 2/3, Fig. 2, the BOOM hunt) is a grid of
*independent* verification tasks, and inside each task the secret-pair
quantifier roots are independent again: a root's DFS subtree never shares
states with another root's (visited-set keys embed the root index), so

- one :class:`repro.core.verifier.VerificationTask` shards into
  contiguous *root batches* ``roots[a:b]``, each searched by one
  :class:`repro.mc.explorer.Explorer` -- which keeps the transition memo
  across the batch's roots and stops at the first attack exactly like
  the serial engine, so no shard explores a root the serial scan would
  skip inside its batch.  Each unit gets ``min(roots, ceil(2 x capacity
  / units))`` batches, so the campaign still has ~2x capacity shards
  (the Table-2 grid runs as one shard per unit), and
- a whole campaign -- one bench table -- fans all shards of all units
  across an execution backend.

Root batches are the only shard shape: a single-root task runs as one
shard, and a sweep of such tasks (Fig. 2) parallelizes across its
points.

**Backends.**  The scheduler plans shards; *where* they run is a
pluggable :class:`repro.campaign.backends.ExecutionBackend`:
``SerialBackend`` (inline, the deterministic reference) or
``ProcessPoolBackend`` (the process fan-out, the default for
``n_workers > 1``).  A shard's outcome is a pure function of its
picklable :class:`repro.campaign.backends.WorkItem`, so merged results
are bit-identical across backends; only wall-clock moves.

**Hot workers.**  Shards of one unit share everything but their roots
and limits; re-pickling the task's spec (space, core, contract) per
shard is pure dispatch overhead.  Items therefore carry a 128-bit
content fingerprint of their spec
(:func:`repro.campaign.backends.specs.spec_fingerprint`); the process
backend ships the spec inline only on a receiver's first encounter and
the bare fingerprint thereafter, and executors rehydrate from a
per-process cache (a cold process answers ``SpecMiss`` and the
dispatcher re-sends with the spec attached -- one extra round trip,
never an error).

**Determinism.**  The serial engine's LIFO stack explores roots in
*reversed* list order, finishing one root's subtree before touching the
next, and within a root the DFS is fully deterministic.  The merge
therefore replays that order: scan per-root outcomes from the last root
to the first, summing search stats, and adopt the first non-proof as the
unit verdict.  A root batch's outcome *is* that scan over its own
roots (its ``Explorer`` pops them in the same LIFO order and stops at
the same attack), so the unit merge scans batch outcomes exactly as it
would scan their roots'.  Under budgets generous enough that no shard
times out, the merged outcome -- verdict, counterexample *and*
state/transition counts -- is bit-identical to the monolithic serial
search, for every backend and worker count.  (When a budget *does*
trip, verdicts may legitimately differ across capacities: each shard
gets the task's full ``timeout_s``, so parallelism completes searches
the serial engine would time out on.)
``n_workers=1`` with no explicit backend does not shard at all: it runs
the historical serial path unchanged, which is the reproducibility
baseline the merged results are tested against.

**Short-circuiting.**  A unit is decided as soon as the serial-order scan
hits a non-proof with every serially-earlier root proved; the remaining
(serially-later) shards are cancelled.  This mirrors the serial engine,
which would never have explored them.

**Budget.**  ``budget_s`` is one shared wall-clock budget for the whole
campaign.  The scheduler stamps the corresponding absolute deadline into
every shard's :class:`repro.mc.explorer.SearchLimits`, so in-flight
worker searches cancel themselves (the paper's third outcome, timeout).
Units that cannot start before the deadline are reported as timeouts
without running.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, replace
from typing import Sequence

from repro import obs
from repro.obs import clock
from repro.obs.live import ProgressTracker, StatusPublisher
from repro.obs.metrics import MetricsRegistry, fill_telemetry, new_registry
from repro.campaign.backends import (
    BACKEND_NAMES,
    BUDGET_NOTE,
    ExecutionBackend,
    ProcessPoolBackend,
    ShardFailure,
    WorkItem,
    budget_outcome as _budget_outcome,
    build_named_backend,
    resolve_workers,
    split_spec,
)
from repro.campaign.backends.specs import spec_fingerprint
from repro.campaign.log import CampaignLog
from repro.core.verifier import VerificationTask, verify
from repro.isa.instruction import Opcode
from repro.mc.result import PROVED, Outcome, SearchStats

__all__ = [
    "BACKEND_NAMES",
    "BUDGET_NOTE",
    "CampaignResult",
    "CampaignUnit",
    "resolve_workers",
    "run_campaign",
    "verify_sharded",
]


@dataclass
class CampaignTelemetry:
    """Observability counters for one campaign run.

    Purely diagnostic -- none of these affect results (the bit-identity
    contract is exactly that they cannot).  ``steals`` and ``steal_won``
    always read 0: the scheduler no longer steals work, and the fields
    stay only because the frozen ``perfbench/leg.py`` reads them.

    Every :class:`CampaignResult` of a run carries the run's telemetry
    object (one shared instance per campaign) -- that is the supported
    way to read the counters.  :data:`LAST_TELEMETRY` remains as a
    process-global convenience alias of the most recent campaign's
    object; it is re-pointed (never mutated in place) at the start of
    every ``run_campaign``, so counters can no longer leak across runs.

    Since the ``repro.obs`` layer landed this dataclass is a
    *compatibility shim*: the scheduler counts into the campaign's
    :class:`repro.obs.metrics.MetricsRegistry` (the superset -- time
    series live only there, see ``repro.obs.metrics.LAST_REGISTRY``),
    and ``shards`` is filled from the registry when the campaign ends
    (:func:`repro.obs.metrics.fill_telemetry`).
    """

    backend: str = ""
    capacity: int = 0
    steals: int = 0
    steal_won: int = 0
    #: Work items actually submitted to the backend (root batches) --
    #: the dispatch-overhead denominator.
    shards: int = 0


#: Telemetry of the most recent campaign in this process: an alias of
#: the object every ``CampaignResult.telemetry`` of that run carries.
#: Reset (re-pointed to a fresh instance) per ``run_campaign`` call.
LAST_TELEMETRY = CampaignTelemetry()


def _plan_batches(weights: Sequence[int], n_batches: int) -> list[tuple[int, int]]:
    """Partition a unit's roots into contiguous weight-balanced batches.

    Returns ``[start, end)`` index ranges covering ``weights`` in order
    -- contiguity is what keeps a batch's outcome equal to the serial
    merge of its roots.  Greedy: each batch closes once it reaches the
    remaining-average weight, while always leaving at least one entry
    per remaining batch.
    """
    count = len(weights)
    if not count:
        return []
    n_batches = max(1, min(n_batches, count))
    batches: list[tuple[int, int]] = []
    start = 0
    remaining = float(sum(weights))
    for index in range(n_batches):
        left = n_batches - index  # batches still to emit, incl. this one
        max_end = count - (left - 1)
        target = remaining / left
        end = start + 1
        acc = weights[start]
        while end < max_end and acc < target:
            acc += weights[end]
            end += 1
        batches.append((start, end))
        remaining -= acc
        start = end
    return batches


@dataclass(frozen=True)
class CampaignUnit:
    """One independently-verifiable cell of a campaign.

    ``experiment`` and ``key`` identify the cell in result logs and
    re-rendered tables (e.g. ``("shadow", "Sodor")`` for Table 2).
    """

    experiment: str
    key: tuple[str, ...]
    task: VerificationTask


@dataclass(frozen=True)
class CampaignResult:
    """One merged unit outcome, labelled like its unit.

    ``telemetry`` is the campaign's shared
    :class:`CampaignTelemetry` instance (identical on every result of
    one run); diagnostic only, excluded from equality-based tests by
    virtue of comparing outcomes, not results.
    """

    experiment: str
    key: tuple[str, ...]
    outcome: Outcome
    telemetry: CampaignTelemetry | None = None


def _check_picklable(unit: CampaignUnit) -> None:
    try:
        pickle.dumps(unit.task)
    except Exception as exc:  # pickle raises a zoo of types
        raise ValueError(
            f"campaign unit {unit.experiment}/{'/'.join(unit.key)} is not "
            "picklable and cannot be dispatched to worker processes; build "
            "its core_factory from repro.campaign.registry.CoreSpec instead "
            f"of a closure ({exc})"
        ) from None


def _merge_serial(outcomes: Sequence[Outcome | None]) -> Outcome | None:
    """Merge sibling shard outcomes in serial exploration order.

    Siblings are a unit's root batches, pushed in list order onto the
    serial engine's LIFO stack, so the scan runs from the last entry to
    the first, summing search stats, and adopts the first non-proof as
    the verdict.  Returns ``None`` while the merge is still blocked on a
    pending shard (``outcomes[i] is None``); pending shards *behind* the
    deciding one are serially dead -- the serial engine would never have
    explored them -- so they neither block nor contribute.
    """
    merged_stats = SearchStats()
    elapsed = 0.0
    decided: Outcome | None = None
    for index in reversed(range(len(outcomes))):
        outcome = outcomes[index]
        if outcome is None:
            return None
        merged_stats = merged_stats.combine(outcome.stats)
        elapsed += outcome.elapsed
        if outcome.kind != PROVED:
            decided = outcome
            break
    if decided is not None:
        return Outcome(
            kind=decided.kind,
            elapsed=elapsed,
            stats=merged_stats,
            counterexample=decided.counterexample,
            note=decided.note,
        )
    return Outcome(kind=PROVED, elapsed=elapsed, stats=merged_stats)


class _UnitState:
    """Book-keeping for one in-flight sharded unit.

    ``subtasks[i]`` is the unit's task narrowed to its ``i``-th root
    batch (deadline-stamped); ``outcomes[i]`` is that batch's outcome,
    ``None`` while its shard is pending.
    """

    def __init__(
        self, index: int, unit: CampaignUnit, subtasks: list[VerificationTask]
    ):
        self.index = index
        self.unit = unit
        self.subtasks = subtasks
        self.outcomes: list[Outcome | None] = [None] * len(subtasks)
        self.tickets: list[int] = []  # every ticket under this unit
        self.final: Outcome | None = None
        #: Content fingerprint of the unit's task spec (the task minus
        #: roots and limits); stamped on every shard so hot-worker
        #: backends ship the spec once per worker.
        self.spec_fp: int | None = None


class _ResultSink:
    """Streams finalized unit outcomes to the log in submission order.

    Parallel campaigns finalize units out of order; the sink buffers
    outcomes and writes the longest finalized prefix after every
    ``offer``, so log ordering stays deterministic while completed work
    survives a mid-campaign crash or interrupt.
    """

    def __init__(
        self,
        units: list[CampaignUnit],
        log: CampaignLog | None,
        tracker: ProgressTracker | None = None,
    ):
        self.units = units
        self.log = log
        self.tracker = tracker
        self.outcomes: list[Outcome | None] = [None] * len(units)
        self._next = 0

    def offer(self, index: int, outcome: Outcome) -> None:
        self.outcomes[index] = outcome
        if self.tracker is not None:
            # Every finalized unit passes through here (idempotent per
            # index on the tracker side), so live progress needs no
            # second choke point.
            self.tracker.unit_done(index, outcome.kind)
        if self.log is None:
            return
        while self._next < len(self.units):
            pending = self.outcomes[self._next]
            if pending is None:
                break
            unit = self.units[self._next]
            self.log.result(unit.experiment, unit.key, pending)
            self._next += 1


def _resolve_backend(
    backend, n_workers: int | None
) -> tuple[ExecutionBackend | None, bool, int]:
    """Map the ``backend`` argument onto (instance, owned-here, capacity).

    ``None`` keeps the historical behavior -- the serial fast path for
    one worker, an implicit process pool otherwise (instance ``None``
    here; :func:`_run_sharded` constructs it after planning so the pool
    can still be clamped to the shard count).
    """
    if backend is None:
        workers = resolve_workers(n_workers)
        return None, True, workers
    if isinstance(backend, ExecutionBackend):
        return backend, False, max(1, backend.capacity())
    built = build_named_backend(backend, n_workers)
    return built, True, built.capacity()


def run_campaign(
    units: Sequence[CampaignUnit],
    *,
    n_workers: int | None = None,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
    experiment: str = "campaign",
    backend=None,
    status_json: str | None = None,
    status_interval: float = 1.0,
) -> list[CampaignResult]:
    """Run a campaign; results align with ``units`` (deterministic order).

    ``backend`` selects the executor: ``None`` (default) keeps the
    historical behavior -- ``n_workers=1`` runs every unit through the
    plain serial :func:`repro.core.verifier.verify`, larger counts fan
    shards over an implicit process pool; ``"serial"`` / ``"process"``
    name the corresponding :mod:`repro.campaign.backends` class; a
    live :class:`repro.campaign.backends.ExecutionBackend` instance is
    used as-is and left open for the caller to reuse.  Merged outcomes
    are bit-identical across backends (see the module docstring).

    ``budget_s`` is a shared wall-clock budget; units it cuts off report
    timeout outcomes noted ``"campaign budget exhausted"``.

    ``status_json`` names a file to atomically rewrite with the latest
    :class:`repro.obs.live.ProgressSnapshot` about every
    ``status_interval`` seconds (every backend, serial included); the
    same snapshots land in ``repro.obs.live.LAST_SNAPSHOT``.
    Observability only -- results are bit-identical with or without
    it.
    """
    units = list(units)
    deadline = None if budget_s is None else clock.monotonic() + budget_s
    backend_obj, owned, capacity = _resolve_backend(backend, n_workers)
    # One telemetry object per campaign, shared by every result of the
    # run; the process-global alias is re-pointed (not mutated) so a
    # previous campaign's counters can never bleed into this one.  The
    # registry is the counters' source of truth; the telemetry shim is
    # filled from it when the campaign ends.
    global LAST_TELEMETRY
    telemetry = CampaignTelemetry(capacity=capacity)
    LAST_TELEMETRY = telemetry
    registry = new_registry()
    tracker = ProgressTracker(
        experiment=experiment, units_total=len(units), capacity=capacity
    )
    publisher = StatusPublisher(
        tracker, registry=registry, interval=status_interval, path=status_json
    )
    if log is not None:
        log.header(experiment, capacity, len(units))
    # Results stream to the log in submission order as units finalize
    # (each record is flushed), so an interrupted campaign keeps every
    # completed prefix for --from-log re-rendering.
    sink = _ResultSink(units, log, tracker)
    try:
        with obs.span("campaign", experiment=experiment, units=len(units)):
            if backend is None and capacity == 1:
                telemetry.backend = "serial"
                tracker.backend = "serial"
                outcomes = _run_serial(units, deadline, sink, publisher)
            else:
                outcomes = _run_sharded(
                    units, backend_obj, owned, capacity, deadline, sink,
                    telemetry, registry, tracker, publisher,
                )
    finally:
        fill_telemetry(telemetry, registry)
    return [
        CampaignResult(unit.experiment, unit.key, outcome, telemetry)
        for unit, outcome in zip(units, outcomes)
    ]


def _stamp_deadline(task: VerificationTask, deadline: float | None):
    if deadline is None:
        return task
    limits = task.limits
    if limits.deadline is not None:
        deadline = min(limits.deadline, deadline)
    return replace(task, limits=replace(limits, deadline=deadline))


def _run_serial(
    units: list[CampaignUnit],
    deadline: float | None,
    sink: _ResultSink,
    publisher: StatusPublisher | None = None,
) -> list[Outcome]:
    outcomes: list[Outcome] = []
    for index, unit in enumerate(units):
        if publisher is not None:
            publisher.tick()
        key = "/".join(unit.key)
        if deadline is not None and clock.monotonic() >= deadline:
            outcome = _budget_outcome()
        else:
            with obs.span("unit", unit=key):
                outcome = verify(_stamp_deadline(unit.task, deadline))
        obs.event(
            "unit.done", unit=key, kind=outcome.kind, elapsed=outcome.elapsed
        )
        outcomes.append(outcome)
        sink.offer(index, outcome)
        if sink.tracker is not None:
            sink.tracker.states += outcome.stats.states
            if outcome.elapsed > 0:
                sink.tracker.note_rate(outcome.stats.states / outcome.elapsed)
    if publisher is not None:
        publisher.finish()
    return outcomes


def _frontier_width(task: VerificationTask) -> int:
    """First-cycle fan-out estimate for the scheduling cost model.

    One open slot fetched on the first cycle yields one child per
    instruction, twice that for nondeterministically-predicted branches
    -- the measured widths (7 for the Fig. 2 sweep space, 13 for
    SPACE_SIMPLE) are reproduced exactly by this count.
    """
    return sum(
        2 if inst.op is Opcode.BRANCH else 1
        for inst in task.space.instructions()
    )


def _cost_model(task: VerificationTask) -> tuple[int, int]:
    """(frontier width, depth bound) of one unit's cost model.

    Building the core to read ``imem_size`` is the expensive part, so
    the planner computes this once per unit and threads it through both
    consumers below.
    """
    return _frontier_width(task), task.core_factory().params.imem_size


def _predicted_states(
    task: VerificationTask, n_roots: int, model: tuple[int, int] | None = None
) -> int:
    """Expected-state estimate: roots x frontier width ^ depth bound.

    Each root's program tree has at most ``depth`` (the instruction
    memory size) open slots, each fanning out by the first-cycle
    ``width``, so this counts program paths, not reachable states.  It
    is coarse on purpose: it only needs to *order* units (largest
    first, so the long pole starts before the queue fills with small
    cells) -- a pure scheduling decision the bit-identity contract is
    immune to.
    """
    width, depth = model if model is not None else _cost_model(task)
    return max(1, n_roots) * width**depth


def _run_sharded(
    units: list[CampaignUnit],
    backend: ExecutionBackend | None,
    owned: bool,
    capacity: int,
    deadline: float | None,
    sink: _ResultSink,
    telemetry: CampaignTelemetry,
    registry: MetricsRegistry,
    tracker: ProgressTracker | None = None,
    publisher: StatusPublisher | None = None,
) -> list[Outcome]:
    for unit in units:
        _check_picklable(unit)
    states: list[_UnitState] = []
    models: list[tuple[int, int]] = []  # per-unit (width, depth) cost model
    n_roots: list[int] = []
    # Root batching: enough contiguous batches per unit that the campaign
    # has >= ~2x capacity shards, never more than one per root.
    batches_per_unit = math.ceil(2 * capacity / max(1, len(units)))
    for index, unit in enumerate(units):
        models.append(_cost_model(unit.task))
        roots = unit.task.build_roots()
        n_roots.append(len(roots))
        subtasks = [
            _stamp_deadline(replace(unit.task, roots=roots[a:b]), deadline)
            for a, b in _plan_batches([1] * len(roots), batches_per_unit)
        ]
        state = _UnitState(index, unit, subtasks)
        state.spec_fp = spec_fingerprint(split_spec(unit.task)[0])
        states.append(state)
    if backend is None:
        # Implicit process pool: never more processes than shards.
        total = sum(len(state.subtasks) for state in states)
        capacity = max(1, min(capacity, total))
        backend = ProcessPoolBackend(capacity)
        owned = True
    telemetry.backend = backend.name
    telemetry.capacity = capacity
    if tracker is not None:
        tracker.backend = backend.name
        tracker.capacity = capacity
    # Status plumbing (observability only): the backend ticks the
    # publisher from its wait loop so snapshots flow while the drain
    # below blocks.
    if publisher is not None:
        backend.set_status_publisher(publisher)
    #: ticket -> (unit state, batch position)
    owner: dict[int, tuple[_UnitState, int]] = {}

    def try_finalize(state: _UnitState) -> bool:
        """Attempt the serial-order merge; cancel obsolete shards."""
        if state.final is not None:
            return True
        merged = _merge_serial(state.outcomes)
        if merged is None:
            return False
        state.final = merged
        obs.event(
            "unit.done",
            unit="/".join(state.unit.key),
            kind=merged.kind,
            elapsed=merged.elapsed,
        )
        for ticket in state.tickets:
            backend.cancel(ticket)
            owner.pop(ticket, None)
        return True

    try:
        # Cost-model dispatch: submit units largest-first (by the roots x
        # width^depth estimate), so the campaign's long pole starts
        # executing before the queue fills with small cells.  Results,
        # logs and merges still follow unit *submission list* order (the
        # sink buffers), and shard outcomes are order-blind pure
        # functions -- only wall-clock moves.  Ties keep list order
        # (stable sort), so equal-cost grids behave historically.
        plan_order = sorted(
            states,
            key=lambda s: _predicted_states(
                s.unit.task, n_roots[s.index], models[s.index]
            ),
            reverse=True,
        )
        for state in plan_order:
            if deadline is not None and clock.monotonic() >= deadline:
                state.final = _budget_outcome()
                sink.offer(state.index, state.final)
                continue
            key = "/".join(state.unit.key)
            # Submit in *serial* order (last batch first, the LIFO
            # exploration order), so a serial backend runs the batch that
            # may decide the unit before its serially-later siblings.
            for pos in reversed(range(len(state.subtasks))):
                subtask = state.subtasks[pos]
                ticket = backend.submit_unit(
                    WorkItem(subtask, spec_fp=state.spec_fp)
                )
                registry.counter("campaign.shards").inc()
                if tracker is not None:
                    tracker.shard_submitted()
                obs.event(
                    "shard.submit",
                    ticket=ticket,
                    unit=key,
                    predicted=_predicted_states(
                        subtask, len(subtask.roots), models[state.index]
                    ),
                )
                owner[ticket] = (state, pos)
                state.tickets.append(ticket)
            # Zero-root tasks finalize immediately.
            if try_finalize(state):
                sink.offer(state.index, state.final)
        for ticket, outcome in backend.as_completed():
            info = owner.pop(ticket, None)
            if isinstance(outcome, Outcome):
                obs.event(
                    "shard.done",
                    ticket=ticket,
                    kind=outcome.kind,
                    states=outcome.stats.states,
                    elapsed=outcome.elapsed,
                )
                if tracker is not None:
                    tracker.shard_done(
                        outcome.stats.states, outcome.elapsed
                    )
            if info is None:
                continue  # cancelled: a stale result
            state, pos = info
            if state.final is not None:
                continue
            if isinstance(outcome, ShardFailure):
                raise RuntimeError(
                    "campaign shard for unit "
                    f"{state.unit.experiment}/{'/'.join(state.unit.key)} "
                    f"failed: {outcome.message}"
                )
            if (
                not outcome.timed_out
                and outcome.elapsed > 0
                and outcome.stats.states > 0
            ):
                # Engine-level series: measured throughput over time.
                registry.time_series("campaign.states_per_s").add(
                    clock.monotonic(), outcome.stats.states / outcome.elapsed
                )
            state.outcomes[pos] = outcome
            if try_finalize(state):
                sink.offer(state.index, state.final)
        for state in states:
            if state.final is None:  # every shard cancelled under it
                state.final = _merge_serial(
                    [o or _budget_outcome() for o in state.outcomes]
                )
                sink.offer(state.index, state.final)
        if publisher is not None:
            publisher.finish(backend)
        return [state.final for state in states]
    finally:
        backend.set_status_publisher(None)
        if owned:
            backend.close()


def verify_sharded(
    task: VerificationTask,
    *,
    n_workers: int | None = None,
    budget_s: float | None = None,
    backend=None,
) -> Outcome:
    """Verify one task, its secret-pair roots sharded across workers.

    The one-task convenience wrapper over :func:`run_campaign`; the BOOM
    attack hunt uses it to parallelize each exclusion round.  A task
    gets at most one shard per root, so a single-root task runs as one
    shard.  ``backend`` accepts the same values as :func:`run_campaign`.
    """
    unit = CampaignUnit(experiment="task", key=("task",), task=task)
    [result] = run_campaign(
        [unit], n_workers=n_workers, budget_s=budget_s, backend=backend
    )
    return result.outcome
