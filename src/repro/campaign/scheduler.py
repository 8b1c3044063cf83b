"""Campaign scheduling: root-batch sharding, run inline or in a pool.

The paper's evaluation (Tables 2/3, Fig. 2, the BOOM hunt) is a grid of
*independent* verification tasks, and inside each task the secret-pair
quantifier roots are independent again: a root's DFS subtree never shares
states with another root's (visited-set keys embed the root index), so

- one :class:`repro.core.verifier.VerificationTask` shards into
  contiguous *root batches* ``roots[a:b]``, each searched by one
  :class:`repro.mc.explorer.Explorer` -- which keeps the transition memo
  across the batch's roots and stops at the first attack exactly like
  the serial engine, so no shard explores a root the serial scan would
  skip inside its batch.  With more than one worker each unit gets
  ``min(roots, ceil(2 x workers / units))`` batches, so the campaign
  still has ~2x workers shards (the Table-2 grid runs as one shard per
  unit); with one worker each unit is one whole-task batch, since extra
  batches only balance workers and would split the memo, and
- a whole campaign -- one bench table -- fans all shards of all units
  across one executor.

Root batches are the only shard shape: a single-root task runs as one
shard, and a sweep of such tasks (Fig. 2) parallelizes across its
points.

**Executors.**  The scheduler plans shards; the worker count alone
picks where they run (:func:`repro.campaign.backends.make_executor`):
one worker runs them inline (``SerialBackend``), more fan them over a
``ProcessPoolBackend`` no wider than the shard count.  A shard's
outcome is a pure function of its picklable
:class:`repro.campaign.backends.WorkItem`, which crosses into a pool
child whole (task spec, roots and limits in one pickle), so merged
results are bit-identical across worker counts; only wall-clock moves.

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
state/transition counts -- is bit-identical to
:func:`repro.core.verifier.verify` on the whole task, for every worker
count.  (When a budget *does* trip, verdicts may legitimately differ
across capacities: each shard gets the task's full ``timeout_s``, so
parallelism completes searches the serial engine would time out on.)

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
from repro.campaign.backends import (
    BUDGET_NOTE,
    ExecutionBackend,
    ShardFailure,
    WorkItem,
    budget_outcome as _budget_outcome,
    make_executor,
    resolve_workers,
)
from repro.campaign.log import CampaignLog
from repro.core.verifier import VerificationTask
from repro.isa.instruction import Opcode
from repro.mc.result import PROVED, Outcome, SearchStats

__all__ = [
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

    This is the campaign's one count of itself: the scheduler and
    :func:`repro.fuzz.campaign.run_fuzz` add to ``shards`` as they
    submit work.  Per-shard detail (states, elapsed) lives in the
    ``shard.done`` trace events, not here.
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


def _plan_batches(count: int, n_batches: int) -> list[tuple[int, int]]:
    """Partition ``count`` roots into contiguous, evenly sized batches.

    Returns ``[start, end)`` index ranges covering ``range(count)`` in
    order -- contiguity is what keeps a batch's outcome equal to the
    serial merge of its roots.  At most one batch per root; the first
    ``count % n`` batches take one extra root (6 roots in 4 batches
    split 2/2/1/1).
    """
    if not count:
        return []
    n_batches = max(1, min(n_batches, count))
    size, extra = divmod(count, n_batches)
    batches: list[tuple[int, int]] = []
    start = 0
    for index in range(n_batches):
        end = start + size + (index < extra)
        batches.append((start, end))
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
    """Book-keeping for one planned unit.

    ``subtasks[i]`` is the unit's task narrowed to its ``i``-th root
    batch (deadline-stamped); ``outcomes[i]`` is that batch's outcome,
    ``None`` while its shard is pending.  ``model`` is the unit's
    (frontier width, depth bound) cost model over ``n_roots`` roots.
    """

    def __init__(
        self,
        index: int,
        unit: CampaignUnit,
        subtasks: list[VerificationTask],
        model: tuple[int, int],
        n_roots: int,
    ):
        self.index = index
        self.unit = unit
        self.subtasks = subtasks
        self.model = model
        self.n_roots = n_roots
        self.outcomes: list[Outcome | None] = [None] * len(subtasks)
        self.tickets: list[int] = []  # every ticket under this unit
        self.final: Outcome | None = None


class _ResultSink:
    """Streams finalized unit outcomes to the log in submission order.

    Parallel campaigns finalize units out of order; the sink buffers
    outcomes and writes the longest finalized prefix after every
    ``offer``, so log ordering stays deterministic while completed work
    survives a mid-campaign crash or interrupt.
    """

    def __init__(self, units: list[CampaignUnit], log: CampaignLog | None):
        self.units = units
        self.log = log
        self.outcomes: list[Outcome | None] = [None] * len(units)
        self._next = 0

    def offer(self, index: int, outcome: Outcome) -> None:
        self.outcomes[index] = outcome
        if self.log is None:
            return
        while self._next < len(self.units):
            pending = self.outcomes[self._next]
            if pending is None:
                break
            unit = self.units[self._next]
            self.log.result(unit.experiment, unit.key, pending)
            self._next += 1


def run_campaign(
    units: Sequence[CampaignUnit],
    *,
    n_workers: int | None = None,
    budget_s: float | None = None,
    log: CampaignLog | None = None,
    experiment: str = "campaign",
) -> list[CampaignResult]:
    """Run a campaign; results align with ``units`` (deterministic order).

    ``n_workers`` (``None``: one per CPU) picks the executor: one worker
    runs every shard inline, more fan shards over a process pool no
    wider than the shard count, which needs picklable units.  Merged
    outcomes are bit-identical across worker counts (see the module
    docstring).  The log header records the executor's actual width.

    ``budget_s`` is a shared wall-clock budget; units it cuts off report
    timeout outcomes noted ``"campaign budget exhausted"``.
    """
    global LAST_TELEMETRY
    units = list(units)
    deadline = None if budget_s is None else clock.monotonic() + budget_s
    capacity = resolve_workers(n_workers)
    if capacity > 1:
        for unit in units:
            _check_picklable(unit)
    with obs.span("campaign", experiment=experiment, units=len(units)):
        states = _plan(units, capacity, deadline)
        executor = make_executor(
            capacity, sum(len(state.subtasks) for state in states)
        )
        # One telemetry object per campaign, shared by every result of
        # the run; the process-global alias is re-pointed (not mutated)
        # so a previous campaign's counters can never bleed into this one.
        telemetry = CampaignTelemetry(
            backend=executor.name, capacity=executor.capacity()
        )
        LAST_TELEMETRY = telemetry
        if log is not None:
            log.header(experiment, telemetry.capacity, len(units))
        # Results stream to the log in submission order as units finalize
        # (each record is flushed), so an interrupted campaign keeps every
        # completed prefix for --from-log re-rendering.
        sink = _ResultSink(units, log)
        with executor:
            outcomes = _run_sharded(states, executor, deadline, sink, telemetry)
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


def _plan(
    units: list[CampaignUnit], capacity: int, deadline: float | None
) -> list[_UnitState]:
    """Cut every unit into contiguous, deadline-stamped root batches.

    With more than one worker, enough batches per unit that the campaign
    has >= ~2x ``capacity`` shards, never more than one per root.  With
    one worker, one whole-task batch per unit: extra batches only
    balance workers, and would split the memo an ``Explorer`` shares
    across its roots.
    """
    per_unit = (
        1 if capacity == 1 else math.ceil(2 * capacity / max(1, len(units)))
    )
    states: list[_UnitState] = []
    for index, unit in enumerate(units):
        model = _cost_model(unit.task)
        roots = unit.task.build_roots()
        subtasks = [
            _stamp_deadline(replace(unit.task, roots=roots[a:b]), deadline)
            for a, b in _plan_batches(len(roots), per_unit)
        ]
        states.append(_UnitState(index, unit, subtasks, model, len(roots)))
    return states


def _run_sharded(
    states: list[_UnitState],
    backend: ExecutionBackend,
    deadline: float | None,
    sink: _ResultSink,
    telemetry: CampaignTelemetry,
) -> list[Outcome]:
    #: ticket -> (unit state, batch position)
    owner: dict[int, tuple[_UnitState, int]] = {}

    def finish(state: _UnitState, outcome: Outcome) -> None:
        state.final = outcome
        obs.event(
            "unit.done",
            unit="/".join(state.unit.key),
            kind=outcome.kind,
            elapsed=outcome.elapsed,
        )
        sink.offer(state.index, outcome)

    def try_finalize(state: _UnitState) -> None:
        """Attempt the serial-order merge; cancel obsolete shards."""
        merged = _merge_serial(state.outcomes)
        if merged is None:
            return
        finish(state, merged)
        for ticket in state.tickets:
            backend.cancel(ticket)
            owner.pop(ticket, None)

    # Cost-model dispatch: submit units largest-first (by the roots x
    # width^depth estimate), so the campaign's long pole starts
    # executing before the queue fills with small cells.  Results,
    # logs and merges still follow unit *submission list* order (the
    # sink buffers), and shard outcomes are order-blind pure
    # functions -- only wall-clock moves.  Ties keep list order
    # (stable sort).
    plan_order = sorted(
        states,
        key=lambda s: _predicted_states(s.unit.task, s.n_roots, s.model),
        reverse=True,
    )
    for state in plan_order:
        if deadline is not None and clock.monotonic() >= deadline:
            finish(state, _budget_outcome())
            continue
        key = "/".join(state.unit.key)
        # Submit in *serial* order (last batch first, the LIFO
        # exploration order), so the inline executor runs the batch that
        # may decide the unit before its serially-later siblings.
        for pos in reversed(range(len(state.subtasks))):
            subtask = state.subtasks[pos]
            ticket = backend.submit_unit(WorkItem(subtask))
            telemetry.shards += 1
            obs.event(
                "shard.submit",
                ticket=ticket,
                unit=key,
                predicted=_predicted_states(
                    subtask, len(subtask.roots), state.model
                ),
            )
            owner[ticket] = (state, pos)
            state.tickets.append(ticket)
        # Zero-root tasks finalize immediately.
        try_finalize(state)
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
            ) from outcome.error
        state.outcomes[pos] = outcome
        try_finalize(state)
    for state in states:
        if state.final is None:  # every shard cancelled under it
            finish(
                state,
                _merge_serial([o or _budget_outcome() for o in state.outcomes]),
            )
    return [state.final for state in states]


def verify_sharded(
    task: VerificationTask,
    *,
    n_workers: int | None = None,
    budget_s: float | None = None,
) -> Outcome:
    """Verify one task, its secret-pair roots sharded across workers.

    The one-task convenience wrapper over :func:`run_campaign`; the BOOM
    attack hunt uses it to parallelize each exclusion round.  A task
    gets at most one shard per root, so a single-root task runs as one
    shard, and one worker runs the whole task as one shard.
    """
    unit = CampaignUnit(experiment="task", key=("task",), task=task)
    [result] = run_campaign([unit], n_workers=n_workers, budget_s=budget_s)
    return result.outcome
