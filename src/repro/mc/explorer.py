"""The explicit-state search engine.

One :class:`Explorer` checks one product (design under verification)
against one encoding space and a set of secret-pair roots.  The search is
a depth-first traversal of the product transition system with:

- **lazy program concretization**: a symbolic instruction-memory slot is
  enumerated only when some machine actually fetches it; programs sharing
  a prefix share the whole search subtree up to the first difference.
- **shared predictor oracle**: nondeterministic branch predictions are
  free inputs keyed by ``(pc, occurrence)`` and shared by both copies.
- **visited-state closure**: product snapshots are canonical (sequence
  numbers rebased), so revisited states -- including those of looping
  programs -- are cut off.  An exhausted frontier is an unbounded proof
  over the modeled domain.
- **wall-clock budget**: exceeding it yields the paper's third outcome,
  timeout.
- **seeded frontiers**: :meth:`Explorer.expand_root` enumerates a root's
  first-cycle children (independent subtrees -- see
  :class:`RootExpansion`) and :meth:`Explorer.run_seeded` searches one
  such slice, the shard boundary ``repro.campaign`` uses to parallelize
  *inside* a single-root proof.

Hot-path engineering (the state engine)
---------------------------------------
The DFS expands hundreds of thousands of states per proof, so it never
steps the product directly: every product state is a tuple of dense ids
interned by the memoized transition kernel
(:class:`repro.mc.vector.VectorEngine`), visited keys are fixed-width
integer rows in a numpy fingerprint table, and a node's whole choice
expansion memoizes as one summary that later visits replay.  The live
product only runs on memo misses.  numpy is imported when the first
:class:`Explorer` is built, not with this module.

The frozen pre-overhaul object engine lives in :mod:`repro.mc.legacy`;
the equivalence suite pins the two bit-equal: verdicts, counterexamples
and ``SearchStats`` alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.obs import clock
from repro.events import FetchBundle
from repro.isa.encoding import EncodingSpace
from repro.isa.instruction import HALT, Opcode
from repro.mc.env import Environment
from repro.mc.result import (
    ATTACK,
    PROVED,
    TIMEOUT,
    Counterexample,
    Outcome,
    SearchStats,
)

#: How many expansions between wall-clock checks.
_CLOCK_STRIDE = 128

#: How many expanded states one ``engine.wave`` trace span covers.  Only
#: consulted when a recorder is installed (one ``is not None`` branch per
#: expansion otherwise), and wide enough that the two clock reads per
#: span disappear against ~1024 product steps.
_WAVE_STRIDE = 1024


@dataclass(frozen=True)
class SearchLimits:
    """Resource budget for one verification task.

    The paper uses a 7-day timeout on a Xeon server; these are the
    laptop-scale equivalents.  ``max_states`` is a safety net for test
    environments; ``None`` disables a limit.

    ``deadline`` is an *absolute* ``time.monotonic()`` instant shared by
    every task of a campaign (``repro.campaign``): the scheduler stamps it
    on each subtask it dispatches so that one shared wall-clock budget
    cancels in-flight searches across worker processes (``CLOCK_MONOTONIC``
    is system-wide on the platforms we support).  ``timeout_s`` remains the
    per-task relative budget; whichever expires first wins.
    """

    timeout_s: float | None = None
    max_states: int | None = None
    deadline: float | None = None


@dataclass(frozen=True)
class Root:
    """One initial-condition root: a pair of memories differing in secrets."""

    label: str
    dmem_pair: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FrontierEntry:
    """One seeded search node: a first-cycle child of a root.

    Everything a worker needs to resume the DFS below this node --
    resolved environment, canonical product snapshot, absolute depth --
    is plain data, so entries pickle across process boundaries.
    """

    env: Environment
    snap: tuple
    depth: int


@dataclass(frozen=True)
class RootExpansion:
    """The first-cycle expansion of one root: the sub-root shard plan.

    The first cycle's nondeterministic choices (instructions for the
    slots fetched this cycle, predictor bits for new branches) partition
    the root's DFS into independent subtrees: every surviving child's
    environment strictly extends the root environment with a *different*
    assignment, environments only ever grow along a path, and visited
    keys embed the environment -- so two children's subtrees can never
    share a state, and none can revisit the root.  Searching the children
    separately (:meth:`Explorer.run_seeded`) and merging in serial LIFO
    order reproduces the monolithic search bit for bit.

    ``decided`` is non-``None`` when the expansion itself settled the
    root: an attack found on a first-cycle transition, or the budget
    expiring at the root state.  ``stats``/``elapsed`` are the prelude
    the merge must add on top of the children's outcomes: the root state
    itself plus every first-cycle transition (the serial engine completes
    the whole expansion before descending).
    """

    decided: Outcome | None
    stats: SearchStats
    elapsed: float
    entries: tuple[FrontierEntry, ...]

    @property
    def splittable(self) -> bool:
        """Whether per-child shards are sound and worthwhile.

        With fewer than two children there is nothing to parallelize --
        and a lone child may share the root's environment (nothing was
        concretized), voiding the subtree-disjointness argument.
        """
        return self.decided is None and len(self.entries) >= 2


class _Budget:
    """Tracks elapsed time / state count against the limits."""

    def __init__(self, limits: SearchLimits):
        self.limits = limits
        self.start = clock.monotonic()
        self._tick = 0

    def elapsed(self) -> float:
        return clock.monotonic() - self.start

    def exhausted(self, states: int) -> bool:
        limits = self.limits
        if limits.max_states is not None and states >= limits.max_states:
            return True
        # The absolute campaign deadline is checked on *every* expansion
        # (one comparison): shards share it across worker processes, and a
        # strided check would let each shard overrun it by an unbounded
        # amount of work per tick window.  The ``>=`` boundary matches the
        # scheduler's pre-run check (``scheduler._run_shard``).
        if limits.deadline is not None and clock.monotonic() >= limits.deadline:
            return True
        if limits.timeout_s is None:
            return False
        # The relative per-task budget keeps the strided check: it is not
        # shared with anyone, so overrunning it by a tick window is benign.
        self._tick += 1
        if self._tick % _CLOCK_STRIDE:
            return False
        return clock.monotonic() - self.start > limits.timeout_s


class Explorer:
    """Depth-first explicit-state search over one product."""

    #: The state engine's name, as trace spans and layer timings report it.
    engine = "vector"

    def __init__(
        self,
        product,
        space: EncodingSpace,
        roots: list[Root],
        limits: SearchLimits = SearchLimits(),
    ):
        """Build a search engine over one product.

        The product steps through the memoized transition kernel
        (:mod:`repro.mc.vector`), so every machine must speak the
        ``snapshot_words``/``restore_words`` protocol.
        """
        self.product = product
        self.space = space
        self.roots = roots
        self.limits = limits
        self.universe = space.instructions()
        # Lazy import: the kernel pulls in numpy, which code importing
        # this module without searching (the fuzzer) must not pay for.
        from repro.mc.vector import VectorEngine

        self._vector = VectorEngine(product)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> Outcome:
        """Search every root; return proof, first attack, or timeout."""
        stack: list[tuple] = []
        imem_size = self.product.params.imem_size
        vec = self._vector
        for root_index, root in enumerate(self.roots):
            vec.select_root(root)
            env = Environment.empty(imem_size)
            stack.append(vec.seed_node(root_index, env, vec.capture(), 0))
        return self._searched(stack)

    def run_seeded(self, entries: Sequence[FrontierEntry]) -> Outcome:
        """Search a slice of the (single) root's first-cycle frontier.

        The sub-root shard entry point: instead of the bare root, the DFS
        starts from the given frontier entries (pushed in order, so the
        LIFO stack explores the *last* entry first, exactly as the serial
        engine explores a root's children).  The caller owns the serial
        merge: prelude stats from :meth:`expand_root` plus per-entry
        outcomes in reversed entry order.
        """
        if len(self.roots) != 1:
            raise ValueError("seeded search requires exactly one root")
        stack = []
        vec = self._vector
        # Entries carry object snapshots; replay each into the live
        # product (canonical frame by construction) and intern the
        # resulting state as dense ids.
        vec.select_root(self.roots[0])
        for entry in entries:
            self.product.restore(entry.snap)
            stack.append(vec.seed_node(0, entry.env, vec.capture(), entry.depth))
        return self._searched(stack)

    def expand_root(self) -> RootExpansion:
        """Expand the (single) root's first cycle; the sub-root planner.

        Mirrors the first iteration of :meth:`run` exactly: pop the root
        state, charge the budget, run every first-cycle choice through the
        product, and collect the surviving children as frontier entries in
        yield order.
        """
        [root] = self.roots
        imem_size = self.product.params.imem_size
        env = Environment.empty(imem_size)
        self.product.reset(root.dmem_pair)
        return self._expand_node(root, env, self.product.snapshot(), 0)

    def expand_entry(self, entry: FrontierEntry) -> RootExpansion:
        """Expand one frontier entry one more cycle; the depth-2 planner.

        The work-stealing rebalance (:mod:`repro.campaign.scheduler`)
        re-splits a dominant sub-root slice into its children's subtrees
        with this: the independence argument of :class:`RootExpansion`
        recurses verbatim (>= 2 surviving children means the cycle
        concretized at least one slot or predictor bit, so the children's
        environments conflict and their subtrees stay disjoint forever).
        Stats mirror the serial engine visiting the entry node at its
        absolute ``depth``: the prelude carries ``max_depth = depth``,
        children start at ``depth + 1``, so ``prelude + merged children``
        is bit-identical to :meth:`run_seeded` on the whole entry.
        """
        [root] = self.roots
        self.product.reset(root.dmem_pair)
        self.product.restore(entry.snap)
        return self._expand_node(root, entry.env, entry.snap, entry.depth)

    def _expand_node(
        self, root: Root, env: Environment, snap: tuple, depth: int
    ) -> RootExpansion:
        """One-cycle expansion of a node the product currently embodies."""
        budget = _Budget(self.limits)
        transitions = pruned = 0
        prune_reasons: dict[str, int] = {}
        if budget.exhausted(1):
            stats = SearchStats(1, 0, 0, depth, {})
            decided = Outcome(kind=TIMEOUT, elapsed=budget.elapsed(), stats=stats)
            return RootExpansion(decided, stats, budget.elapsed(), ())
        entries: list[FrontierEntry] = []
        requests = self.product.fetch_requests()
        stepped = False
        for child_env, bundles in self._choices(env, requests):
            if stepped:
                self.product.restore(snap)
            stepped = True
            result = self.product.step_cycle(bundles)
            transitions += 1
            if result.pruned:
                pruned += 1
                reason = result.reason or "assume"
                prune_reasons[reason] = prune_reasons.get(reason, 0) + 1
                continue
            if result.failed:
                stats = SearchStats(1, transitions, pruned, depth, prune_reasons)
                cex = Counterexample(
                    root_label=root.label,
                    dmem_pair=root.dmem_pair,
                    env=child_env,
                    depth=depth + 1,
                    reason=result.reason or "leakage",
                )
                decided = Outcome(
                    kind=ATTACK,
                    elapsed=budget.elapsed(),
                    stats=stats,
                    counterexample=cex,
                )
                return RootExpansion(decided, stats, budget.elapsed(), ())
            if self.product.quiescent():
                continue
            entries.append(
                FrontierEntry(child_env, self.product.snapshot(), depth + 1)
            )
        stats = SearchStats(1, transitions, pruned, depth, prune_reasons)
        return RootExpansion(None, stats, budget.elapsed(), tuple(entries))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def visited_footprint(self) -> tuple[int, int]:
        """(key count, approx bytes) of the last run's visited state.

        The search frees each root's visited keys once it moves on to
        the next root, so the keys counted are the last-explored root's
        partition; see :meth:`repro.mc.vector.VectorEngine.footprint`.
        """
        return self._vector.footprint()

    # ------------------------------------------------------------------
    # The DFS core
    # ------------------------------------------------------------------
    def _searched(self, stack: list[tuple]) -> Outcome:
        """Run the DFS, wrapped in an ``engine.search`` trace span.

        With no recorder installed this is one ``None`` check on top of
        the search itself.  When tracing, the span carries the engine
        name, the verdict kind and the state count, and the recorder's
        counters absorb the engine's memo/visited sizes -- the numbers
        :meth:`visited_footprint` would walk for, at ``len`` cost.
        The visited-table load factor additionally lands
        in the live metrics registry (in-process searches only; remote
        shards carry it home in their span batch counters instead).
        """
        rec = obs.recorder()
        if rec is None:
            return self._search(stack)
        with rec.span("engine.search", engine=self.engine) as sp:
            outcome = self._search(stack)
            # A real (stacked) span, not a pre-timed one, so the wave
            # spans recorded inside the search nest under it.
            sp.set(kind=outcome.kind, states=outcome.stats.states)
        rec.count("engine.states", outcome.stats.states)
        rec.count("engine.transitions", outcome.stats.transitions)
        vec = self._vector
        visited = vec.visited
        rec.count("engine.visited", len(visited))
        rec.count("engine.memo_entries", len(vec._expand_memo))
        rec.count("engine.machine_steps", len(vec._trans))
        rec.count("engine.cycle_memo_entries", len(vec._cycle_memo))
        load = len(visited) / visited.capacity
        rec.count("engine.visited_load_millis", int(load * 1000))
        from repro.obs.metrics import LAST_REGISTRY

        if LAST_REGISTRY is not None:
            LAST_REGISTRY.gauge("engine.visited_load").set(load)
            LAST_REGISTRY.time_series("engine.visited_load").add(
                clock.monotonic(), load
            )
        return outcome

    def _search(self, stack: list[tuple]) -> Outcome:
        """The DFS loop over an already-seeded stack.

        Accounting is line-for-line the object loop of
        :mod:`repro.mc.legacy` -- same visited-before-budget order, same
        prune/attack bookkeeping, same ``SearchStats`` -- with three
        representation swaps: stack nodes are ``(key row, fingerprint, env, depth, state)``, product
        cycles replay through the engine's memo tables instead of
        restore + ``step_cycle``, and a node's surviving children push
        as one wave in the serial push order (see the engine
        docstring).  A node's
        expansion memoizes as a *summary*: the counter deltas fold once
        at record time (a replay bumps ``transitions``/``pruned`` in one
        add instead of re-walking pruned and quiescent records), and
        only the surviving children and a possible terminal attack keep
        their environment deltas.
        """
        from repro.mc.vector import _MASK64

        budget = _Budget(self.limits)
        vec = self._vector
        expansion_key = vec.expansion_key
        expand_memo = vec._expand_memo
        memo_get = expand_memo.get
        transition = vec.transition
        push_wave = vec.push_wave
        choices = self._choices
        roots = self.roots
        visited_add = vec.visited.add
        env_ids = vec._env_ids
        env_setdefault = env_ids.setdefault
        stack_append = stack.append
        exhausted = _Budget.exhausted
        states = transitions = pruned = max_depth = 0
        prune_reasons: dict[str, int] = {}
        # Per-wave trace spans: one pre-timed span per _WAVE_STRIDE
        # expansions (one branch per pop when tracing is off).
        rec = obs.recorder()
        wave_t0 = 0.0 if rec is None else clock.monotonic()
        # Data memories are not part of the interned machine words (they
        # are constant along a root's subtree), so crossing into another
        # root's subtree re-resets the product and rebinds the engine's
        # per-memory memo tables.  The LIFO stack finishes a root before
        # popping any node of the root below it, so the crossing also
        # frees the finished root's visited rows and node expansions.
        active_root: int | None = None
        while stack:
            row, fp, env, depth, state = stack.pop()
            root_index = row[0]
            if root_index != active_root:
                if active_root is not None:
                    vec.release_root()
                    visited_add = vec.visited.add
                vec.select_root(roots[root_index])
                active_root = root_index
            if not visited_add(row, fp):
                continue
            states += 1
            if rec is not None and not states % _WAVE_STRIDE:
                now = clock.monotonic()
                rec.add_span(
                    "engine.wave", wave_t0, now,
                    engine="vector", states=_WAVE_STRIDE,
                )
                wave_t0 = now
            if depth > max_depth:
                max_depth = depth
            if exhausted(budget, states):
                stats = SearchStats(
                    states, transitions, pruned, max_depth, prune_reasons
                )
                return Outcome(kind=TIMEOUT, elapsed=budget.elapsed(), stats=stats)
            node_key, requests = expansion_key(state, env)
            summary = memo_get(node_key)
            if summary is None:
                # Memo miss: enumerate choices for real, with the serial
                # loop's exact accounting, while folding the expansion
                # into a summary.  An attack truncates the summary at
                # the failing record -- sound, because a replay fails at
                # the same point with identical counter deltas and never
                # needs the missing tail.
                n_trans = n_pruned = 0
                reasons: dict[str, int] = {}
                pushes: list[tuple] = []
                children: list[tuple] = []
                for child_env, bundles, slots, preds in choices(
                    env, requests, deltas=True
                ):
                    was_pruned, failed, reason, child, quiescent = transition(
                        state, bundles
                    )
                    n_trans += 1
                    transitions += 1
                    if was_pruned:
                        n_pruned += 1
                        pruned += 1
                        reason = reason or "assume"
                        reasons[reason] = reasons.get(reason, 0) + 1
                        prune_reasons[reason] = prune_reasons.get(reason, 0) + 1
                        continue
                    if failed:
                        reason = reason or "leakage"
                        expand_memo[node_key] = (
                            n_trans, n_pruned, tuple(reasons.items()),
                            (), (slots, preds, reason),
                        )
                        stats = SearchStats(
                            states, transitions, pruned, max_depth,
                            prune_reasons,
                        )
                        cex = Counterexample(
                            root_label=roots[root_index].label,
                            dmem_pair=roots[root_index].dmem_pair,
                            env=child_env,
                            depth=depth + 1,
                            reason=reason,
                        )
                        return Outcome(
                            kind=ATTACK,
                            elapsed=budget.elapsed(),
                            stats=stats,
                            counterexample=cex,
                        )
                    if quiescent:
                        continue  # terminal OK state
                    pushes.append((slots, preds, child))
                    children.append((child_env, child))
                expand_memo[node_key] = (
                    n_trans, n_pruned, tuple(reasons.items()), pushes, None,
                )
                push_wave(root_index, depth + 1, children, stack)
                continue
            # Memo hit: replay the summary.  Counter deltas land in one
            # add each; child environments rebuild only where the search
            # actually consumes them (a pushed child or a
            # counterexample), exactly like the serial loop's
            # statistics.
            n_trans, n_pruned, reasons_items, pushes, attack = summary
            transitions += n_trans
            if n_pruned:
                pruned += n_pruned
                for reason, count in reasons_items:
                    prune_reasons[reason] = prune_reasons.get(reason, 0) + count
            if attack is not None:
                slots, preds, reason = attack
                child_env = env
                if slots is not None:
                    child_env = child_env.with_slots(slots)
                if preds is not None:
                    child_env = child_env.with_predictions(preds)
                stats = SearchStats(
                    states, transitions, pruned, max_depth, prune_reasons
                )
                cex = Counterexample(
                    root_label=roots[root_index].label,
                    dmem_pair=roots[root_index].dmem_pair,
                    env=child_env,
                    depth=depth + 1,
                    reason=reason,
                )
                return Outcome(
                    kind=ATTACK,
                    elapsed=budget.elapsed(),
                    stats=stats,
                    counterexample=cex,
                )
            # Push the children inline: the same push
            # :meth:`repro.mc.vector.VectorEngine.push_wave` performs,
            # without the call and re-binding overhead.
            depth1 = depth + 1
            for slots, preds, child in pushes:
                child_env = env
                if slots is not None:
                    child_env = child_env.with_slots(slots)
                if preds is not None:
                    child_env = child_env.with_predictions(preds)
                crow = (
                    root_index, env_setdefault(child_env, len(env_ids))
                ) + child
                # repro: allow[determinism] int-only row (see fingerprint_row); within-process fingerprint
                cfp = hash(crow) & _MASK64 or 1
                stack_append((crow, cfp, child_env, depth1, child))
        stats = SearchStats(
            states, transitions, pruned, max_depth, prune_reasons
        )
        return Outcome(kind=PROVED, elapsed=budget.elapsed(), stats=stats)

    # ------------------------------------------------------------------
    # Nondeterministic-choice enumeration
    # ------------------------------------------------------------------
    def _choices(self, env: Environment, requests, deltas: bool = False):
        """Yield (extended environment, fetch bundles) for one cycle.

        Branches over (a) instructions for symbolic slots fetched this
        cycle and (b) predictor-oracle bits for newly predicted branches.
        The caller reads ``requests`` off the restored node state once;
        this generator never touches the product, so the search loop owns
        the restore discipline.  Yield order is bit-identical to the
        legacy engine's (the equivalence contract).

        With ``deltas`` the yield grows to ``(env, bundles, slot map,
        prediction map)`` -- the exact extension dicts applied to the
        node environment (``None`` where nothing was concretized).  The
        vector engine records these on a node-memo miss so a later hit
        can rebuild every child environment without re-enumerating
        choices (:meth:`_search`).
        """
        n_slots = len(self.product.machines)
        imem = env.imem
        # A fetch PC is enumerable only inside the modeled instruction
        # memory; ``len(env.imem)`` additionally guards seeded frontiers
        # whose environment models a smaller memory than the product's
        # parameters claim.  Everything else -- a wrapped or overflowed PC
        # from a mispredicted fetch included -- reads as ``HALT``, exactly
        # like running off the end of the program.
        imem_size = min(self.product.params.imem_size, len(imem))
        open_pcs = sorted(
            {
                req.pc
                for req in requests
                if 0 <= req.pc < imem_size and imem[req.pc] is None
            }
        )
        iproduct = itertools.product
        branch_op = Opcode.BRANCH
        for insts in iproduct(self.universe, repeat=len(open_pcs)):
            if open_pcs:
                slot_map = dict(zip(open_pcs, insts))
                env_i = env.with_slots(slot_map)
            else:
                slot_map = None
                env_i = env
            imem_i = env_i.imem
            prediction = env_i.prediction
            # Which fetches need a fresh predictor-oracle bit?
            open_keys: list[tuple[int, int]] = []
            for req in requests:
                pc = req.pc
                if 0 <= pc < imem_size:
                    inst = imem_i[pc]
                    if inst is None:
                        inst = HALT
                else:
                    inst = HALT
                if inst.op is not branch_op or req.predictor != "nondet":
                    continue
                key = (pc, req.occurrence)
                if prediction(key) is None and key not in open_keys:
                    open_keys.append(key)
            bit_sets = (
                iproduct((False, True), repeat=len(open_keys))
                if open_keys
                else ((),)
            )
            for bits in bit_sets:
                if open_keys:
                    pred_map_delta = dict(zip(open_keys, bits))
                    env_ip = env_i.with_predictions(pred_map_delta)
                else:
                    pred_map_delta = None
                    env_ip = env_i
                # Direct oracle access (the dict behind env.prediction):
                # this loop runs once per transition of the whole search.
                pred_map = env_ip._pred_map
                bundles: list[FetchBundle | None] = [None] * n_slots
                for req in requests:
                    pc = req.pc
                    if 0 <= pc < imem_size:
                        inst = imem_i[pc]
                        if inst is None:
                            inst = HALT
                    else:
                        inst = HALT
                    predictor = req.predictor
                    if inst.op is not branch_op or predictor == "none":
                        taken = None
                    elif predictor == "taken":
                        taken = True
                    elif predictor == "not_taken":
                        taken = False
                    else:
                        taken = pred_map[(pc, req.occurrence)]
                    bundles[req.slot] = FetchBundle(pc, inst, taken)
                if deltas:
                    yield env_ip, bundles, slot_map, pred_map_delta
                else:
                    yield env_ip, bundles
