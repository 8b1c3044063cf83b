"""The vector engine: memoized stepping over numpy structure-of-arrays.

The search's only state engine.  Machines flatten their state to
tagged-word rows (:mod:`repro.mc.packed`); this module interns those
rows and replays memoized transitions instead of re-executing the
Python pipeline model on every product cycle:

- **Machine-transition memoization.**  A core's ``step`` is a pure
  function of ``(canonical machine words, fetch bundle, data memory)``
  -- the canonical rebasing makes every search-visible quantity of a
  step frame-invariant, which is the same argument that lets the serial
  engine mix restored (rebased) and live (DFS-descent) stepping.  A
  product's cross product of machines makes the *same* machine
  transition recur across many product states (measured: 92.6% of the
  1.18M machine steps of the Fig. 2 ROB-8 cell are repeats of 87k
  distinct transitions), so the vector engine keys transitions on the
  interned machine state and replays memoized outcomes instead of
  stepping.  The hot-path tables key on the data-memory *value*, so the
  two orientations of a mirrored secret pair -- root ``(A, B)`` side 0
  and root ``(B, A)`` side 1 -- share one table.  Behind them sits one
  memory-independent *read index*.  Every machine runs at most one
  instruction per ``step`` and reads data memory only through that
  instruction's ``execute``, at a word fixed by ``(machine words,
  bundle)`` and reported as ``dmem_read``.  A step is therefore a pure
  function of ``(words, bundle)`` when it reads nothing, and of
  ``(words, bundle, value at the word)`` when it reads one word.  The
  index keys transitions exactly so, and a per-memory table miss binds
  the transition id another memory (another copy, another root) already
  stepped, instead of stepping again: copies share every step until one
  loads a word on which their memories differ.  The payload of a
  transition (output, child sid, canonical tail/head/base) depends on
  memory only through the value read, so the sharing is exact, and the
  shared ids make the cycle memo below hit across memories too.
  ``tests/mc/test_dmem_read.py`` checks the read contract on every
  machine family.  Machines of different classes (ISA machine, in-order
  core, OoO core) intern apart, so equal word rows of two classes never
  share a state id or a transition.
- **Cycle-level composition.**  On top of the per-machine memo, one
  product cycle is keyed by ``(transition ids, checker state id)``: the
  product's own ``fold_cycle`` (assumption checks, contract and leakage
  verdicts) and the child product state are computed once per distinct
  combination on the product's live checker and replayed as a single
  dict probe afterwards.  The checker is whatever product-level state
  sits beside the machines: the Contract Shadow Logic of
  :class:`repro.core.products.ShadowProduct`, the pending-observation
  pair of the four-machine
  :class:`repro.core.products.BaselineProduct`.  A product state is then
  a tuple of small integers ``(sid_0, ..., sid_n-1, checker_id)``.
- **Structure-of-arrays storage.**  :class:`FrontierArena` stores word
  rows (the visited keys) as 2-D ``int64`` numpy arrays bucketed by row
  width.  :class:`VectorVisited` is the visited set: an open-addressed
  ``uint64`` fingerprint table (zero-sentinel linear probing) over
  *exact* key rows kept in an arena bucket -- a fingerprint hit is
  confirmed against the stored row, so the search keeps its
  exact-visited-set guarantee.

Waves and the LIFO contract
---------------------------
The explorer expands a node by collecting *all* surviving
children of the popped LIFO node first (a "wave"), then pushes them in
choice order with their key rows and fingerprints.  This replays the
serial merge exactly:

- pushing in choice order preserves the serial pop order;
- a child already in the visited set at push time is popped later and
  skipped silently, exactly as the serial engine checks visited
  *before* counting a state or charging the budget;
- the attack short-circuit is untouched: transitions are evaluated in
  choice order and the first failure returns before any push.

Selection
---------
There is nothing to select: every product in the package (shadow and
baseline, over every core) runs on this engine, and numpy is a hard
dependency.  :class:`repro.mc.explorer.Explorer` imports this module
when it is first constructed, so importing the explorer alone never
pays the numpy import.
Equivalence is pinned bit-for-bit (verdicts, ``SearchStats``,
counterexamples) against the frozen object engine
(:mod:`repro.mc.legacy`) by ``tests/mc/test_engine_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.products import FetchRequest
from repro.events import CycleOutput
from repro.isa.instruction import HALT, Opcode
from repro.mc.intern import deep_sizeof
from repro.mc.packed import AtomTable

_MASK64 = (1 << 64) - 1

#: Linear-probe bound for a saturated (max_capacity-pinned) table.
#: Only reachable
#: when ``max_capacity`` forbids resizing; the explorer never pins one.
_MAX_PROBES = 32

#: Pending-row buffer length at which :class:`VectorVisited` migrates
#: buffered key rows into its arena bucket in one vectorized block
#: (per-insert scalar numpy row writes are the alternative, and they
#: cost more than the whole block assignment).
_FLUSH_ROWS = 1024


def fingerprint_row(row) -> int:
    """Fingerprint of one key row: the row's tuple hash, masked.

    One interpreter-level ``hash()`` call -- the hot path of every
    visited probe -- instead of a per-lane Python mixing loop.  The
    ``& _MASK64`` reinterprets CPython's signed ``Py_hash_t`` as the
    ``uint64`` the probe table stores.
    """
    # repro: allow[determinism] int-only rows: CPython salts only str/bytes hashes, and fingerprints never cross process boundaries
    return hash(row if type(row) is tuple else tuple(row)) & _MASK64


class FrontierArena:
    """Append-only structure-of-arrays store of integer word rows.

    Rows of equal width share one growing 2-D ``int64`` array (ragged
    word counts bucket by length);
    an appended row is addressed by ``(width, index)``.  The arena backs
    the visited set's exact key rows.
    """

    __slots__ = ("_buckets", "_counts")

    def __init__(self) -> None:
        self._buckets: dict[int, np.ndarray] = {}
        self._counts: dict[int, int] = {}

    def append(self, row) -> tuple[int, int]:
        """Store one row; returns its ``(width, index)`` address."""
        width = len(row)
        bucket = self._buckets.get(width)
        count = self._counts.get(width, 0)
        if bucket is None:
            bucket = self._buckets[width] = np.empty((256, width), np.int64)
        elif count == len(bucket):
            grown = np.empty((2 * count, width), np.int64)
            grown[:count] = bucket
            bucket = self._buckets[width] = grown
        bucket[count] = row
        self._counts[width] = count + 1
        return width, count

    def extend(self, width: int, block) -> int:
        """Bulk-append equal-width rows; returns the first row's index.

        One vectorized block assignment replaces ``len(block)`` scalar
        :meth:`append` calls -- the way :class:`VectorVisited` migrates
        its pending-row buffer.
        """
        start = self._counts.get(width, 0)
        need = start + len(block)
        bucket = self._buckets.get(width)
        if bucket is None or need > len(bucket):
            capacity = 256 if bucket is None else len(bucket)
            while capacity < need:
                capacity *= 2
            grown = np.empty((capacity, width), np.int64)
            if bucket is not None:
                grown[:start] = bucket[:start]
            bucket = self._buckets[width] = grown
        bucket[start:need] = block
        self._counts[width] = need
        return start

    def row(self, width: int, index: int) -> np.ndarray:
        """One stored row (a view into the bucket)."""
        return self._buckets[width][index]

    def rows(self, width: int) -> np.ndarray:
        """All stored rows of one width, in append order (a view)."""
        return self._buckets[width][: self._counts.get(width, 0)]

    def count(self, width: int) -> int:
        return self._counts.get(width, 0)

    @property
    def nbytes(self) -> int:
        """Allocated backing bytes across all buckets."""
        return sum(bucket.nbytes for bucket in self._buckets.values())

class VectorVisited:
    """Exact visited set over fixed-width key rows, numpy-backed.

    Open-addressed ``uint64`` fingerprint table (zero = empty, linear
    probing) with a payload index into an exact key-row arena: a
    fingerprint hit is confirmed against the stored row before it
    counts, so membership is exact -- no 2^-64 collision residual is
    accepted.  The table resizes by doubling at 50% load; only a
    ``max_capacity`` pin (tests) can make inserts lossy, and those are
    counted in :attr:`dropped`.
    """

    __slots__ = (
        "width", "_table", "_payload", "_table_mv", "_payload_mv",
        "_mask", "_limit", "_arena", "_fps", "_pending", "count",
        "dropped", "max_capacity",
    )

    def __init__(
        self,
        width: int,
        capacity: int = 1 << 12,
        max_capacity: int | None = None,
        arena: FrontierArena | None = None,
    ):
        if capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        self.width = width
        self._table = np.zeros(capacity, np.uint64)
        self._payload = np.zeros(capacity, np.int64)
        # Probes go through zero-copy memoryviews of the same
        # buffers: element access returns plain Python ints without the
        # ndarray scalar-boxing overhead.
        self._table_mv = memoryview(self._table)
        self._payload_mv = memoryview(self._payload)
        self._mask = capacity - 1
        # Grow at 50% load; the threshold is precomputed so the hot
        # ``add`` pays one comparison, not arithmetic.
        self._limit = capacity >> 1
        self._arena = arena if arena is not None else FrontierArena()
        self._fps: list[int] = []
        # Inserted rows buffer here and migrate to the arena bucket in
        # vectorized blocks (``_FLUSH_ROWS``); ``payload`` indexes the
        # concatenation of the bucket and this buffer.  The visited set
        # must own its width's bucket in the arena it was given.
        self._pending: list[tuple] = []
        self.count = 0
        self.dropped = 0
        self.max_capacity = max_capacity

    def __len__(self) -> int:
        return self.count

    @property
    def capacity(self) -> int:
        """Current table slot count (load factor = ``len / capacity``).

        The table doubles at 50% load, so an unpinned table reads below
        0.5 here; observability (``repro.obs``) samples this ratio as
        the ``engine.visited_load`` gauge.
        """
        return self._mask + 1

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------
    def fingerprint(self, row) -> int:
        """64-bit fingerprint of a row, zero-sentinel-adjusted."""
        return fingerprint_row(row) or 1

    # ------------------------------------------------------------------
    # Probes (the per-pop hot path)
    # ------------------------------------------------------------------
    def _row_equal(self, key_index: int, row) -> bool:
        width = self.width
        migrated = self._arena.count(width)
        stored = (
            self._arena.row(width, key_index)
            if key_index < migrated
            else self._pending[key_index - migrated]
        )
        for column, value in enumerate(row):
            if stored[column] != value:
                return False
        return True

    def _flush(self) -> None:
        """Migrate the pending-row buffer into the arena bucket."""
        pending = self._pending
        if pending:
            self._arena.extend(self.width, pending)
            pending.clear()

    def add(self, row, fp: int) -> bool:
        """Insert a row; ``True`` if it was absent (= now first visit)."""
        if self.count >= self._limit:
            self._grow()
        table = self._table_mv
        payload = self._payload_mv
        mask = self._mask
        index = fp & mask
        probes = 0
        while True:
            slot = table[index]
            if slot == 0:
                break
            if slot == fp and self._row_equal(payload[index], row):
                return False
            index = (index + 1) & mask
            probes += 1
            if probes >= _MAX_PROBES and self.max_capacity is not None:
                # Saturated pinned table: degrade to lossy and count
                # the drop.
                self.dropped += 1
                return True
        table[index] = fp
        # ``count`` doubles as the next global row index: rows are only
        # ever stored on insert, in insert order.
        payload[index] = self.count
        pending = self._pending
        pending.append(row if type(row) is tuple else tuple(row))
        self._fps.append(fp)
        self.count += 1
        if len(pending) >= _FLUSH_ROWS:
            self._flush()
        return True

    def contains(self, row, fp: int) -> bool:
        table = self._table_mv
        payload = self._payload_mv
        mask = self._mask
        index = fp & mask
        probes = 0
        while True:
            slot = table[index]
            if slot == 0:
                return False
            if slot == fp and self._row_equal(payload[index], row):
                return True
            index = (index + 1) & mask
            probes += 1
            if probes >= _MAX_PROBES and self.max_capacity is not None:
                return False

    # ------------------------------------------------------------------
    # Growth / accounting
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        capacity = 2 * (self._mask + 1)
        if self.max_capacity is not None and capacity > self.max_capacity:
            return  # pinned: stay at max_capacity, inserts may drop
        table = np.zeros(capacity, np.uint64)
        payload = np.zeros(capacity, np.int64)
        table_mv = memoryview(table)
        payload_mv = memoryview(payload)
        mask = capacity - 1
        for key_index, fp in enumerate(self._fps):
            index = fp & mask
            while table_mv[index]:
                index = (index + 1) & mask
            table_mv[index] = fp
            payload_mv[index] = key_index
        self._table = table
        self._payload = payload
        self._table_mv = table_mv
        self._payload_mv = payload_mv
        self._mask = mask
        self._limit = capacity >> 1

    @property
    def nbytes(self) -> int:
        """Backing bytes: probe table, payloads, and exact key rows."""
        return (
            self._table.nbytes
            + self._payload.nbytes
            + self._arena.nbytes
            + 8 * len(self._fps)
            + 8 * self.width * len(self._pending)
        )


class VectorEngine:
    """Memoizing product engine over interned machine/checker states.

    One engine serves one :class:`repro.mc.explorer.Explorer`.  Product
    states are tuples of dense ids, one sid per machine slot plus the
    checker id: ``(sid_0, ..., sid_n-1, checker_id)``.  The real
    product materializes only on memo misses (one machine restore +
    step per *distinct* transition, one checker fold per distinct cycle
    combination).  See the module docstring for the frame-invariance
    argument that makes canonical-frame memoization bit-identical to the
    serial engine.
    """

    def __init__(self, product):
        self.product = product
        self._machines = machines = list(product.machines)
        self._predictors = product.predictors
        self._sides = product.dmem_sides
        self.atoms = AtomTable()
        self.arena = FrontierArena()
        #: Visited row width: (root_index, env_id, *sids, checker_id).
        self.width = len(machines) + 3
        self.visited = VectorVisited(width=self.width, arena=self.arena)
        # Machine-state interning: canonical packed words -> dense sid.
        # Slots of one machine class share a dict and other classes get
        # their own, so an ISA row and a core row with equal words never
        # share a sid (nor, through it, a transition).
        by_class: dict[type, dict] = {}
        self._sid_ids = [by_class.setdefault(type(m), {}) for m in machines]
        self._sid_words: list[tuple] = []
        # Per-sid frame-invariant facts: (poll pc, fetch occurrence,
        # paused leg payload).
        self._sid_info: list[tuple] = []
        # Checker-state interning (canonical checker snapshots) and each
        # state's (fetch gated, per-slot pauses, any slot paused).
        self._checker_ids: dict[tuple, int] = {}
        self._checker_states: list[tuple] = []
        self._gates: list[tuple] = []
        # Transition memo: one dict per data-memory value (sid, bundle)
        # -> dense transition id; payloads live in ``_trans``.  Each slot
        # binds the table of the memory its ``dmem_sides`` entry names
        # (``_tables``) and the memory itself (``_mems``).
        self._mach_tables: dict[tuple, dict] = {}
        self._tables: list[dict] = []
        self._mems: list[tuple] = []
        # Memory-independent transition index behind the per-memory
        # tables, flat on purpose (one int per key): (sid, bundle) -> tid
        # of a step that reads no data memory, or -1 - word for one that
        # reads ``word``; (sid, bundle, value at word) -> tid.  The
        # per-memory tables cache its two-lookup answer: an index-only
        # kernel ran ``table2-grid`` ~14% slower (EXPERIMENTS.md).
        self._read_index: dict[tuple, int] = {}
        #: tid -> (CycleOutput, new_sid, tail, head, new seq base, True).
        self._trans: list[tuple] = []
        # Cycle memo: (leg_0, ..., leg_n-1, checker_id) -> folded
        # StepResult where a leg is a transition id (stepped) or
        # -1 - sid (paused).
        self._cycle_memo: dict = {}
        # Node-expansion memo: fetch requests per product state, and the
        # choice expansion folded to a summary per (state, env
        # projection) -- ``(transitions, pruned, reason counts, pushed
        # children's env deltas, terminal attack or None)``; see
        # :meth:`expansion_key` and ``Explorer._search``.
        self._imem_size = product.params.imem_size
        self._req_memo: dict[tuple, tuple] = {}
        self._expand_memo: dict[tuple, tuple] = {}
        # Expansion outcomes depend on the *bound data memories* (the
        # one piece of root state outside the interned machine words),
        # so expansion keys carry a dense id of the active dmem pair --
        # mirror roots bind the same tables but must not share node
        # expansions (their sides step under swapped memories).
        self._pair_ids: dict[tuple, int] = {}
        self._pair_id: int | None = None
        # Environment interning for visited rows (value-keyed; keeps
        # each distinct environment alive once, like the object
        # engine's visited keys do).
        self._env_ids: dict = {}

    # ------------------------------------------------------------------
    # Root / seeding management
    # ------------------------------------------------------------------
    def select_root(self, root) -> None:
        """Reset the product to a root and bind its memories and tables.

        Per-memory tables key on the data-memory *value*: the copies of
        one root see different memories, and the mirror root's opposite
        side shares the table (same machine, same memory -- the same
        pure transition function).  Each slot also binds its memory
        itself: a table miss looks up the value at the word a step reads
        to find the transition in the read index, which is exact for
        every memory holding that value there (see the module
        docstring).
        """
        self.product.reset(root.dmem_pair)
        tables = self._mach_tables
        self._mems = [root.dmem_pair[side] for side in self._sides]
        self._tables = [tables.setdefault(mem, {}) for mem in self._mems]
        pair_ids = self._pair_ids
        self._pair_id = pair_ids.setdefault(root.dmem_pair, len(pair_ids))

    def release_root(self) -> None:
        """Free the search state of a root the DFS has finished.

        Visited rows embed the root index and expansion keys the
        data-memory pair id, so once the search has moved to another
        root neither can hit again.  Everything else stays for the next
        root: the per-memory tables key on memory values, the read index
        on the value a step reads, and the cycle memo, request memo and
        intern tables on interned ids, so none of them is tied to a
        root.
        """
        self.arena = FrontierArena()
        self.visited = VectorVisited(width=self.width, arena=self.arena)
        self._expand_memo.clear()

    def capture(self) -> tuple[int, ...]:
        """Intern the product's live state as ``(*sids, checker_id)``.

        The live state must be canonical-frame (freshly reset or
        restored from a canonical snapshot), which is every caller: root
        seeding and seeded-frontier re-encoding.
        """
        state = [self._intern_machine(slot) for slot in range(len(self._machines))]
        bases = tuple([machine.seq_base() for machine in self._machines])
        state.append(self._checker_id(self.product.checker_snapshot(bases)))
        return tuple(state)

    def seed_node(self, root_index: int, env, state, depth: int) -> tuple:
        """Build one stack node (row, fingerprint, env, depth, state)."""
        env_ids = self._env_ids
        row = (root_index, env_ids.setdefault(env, len(env_ids))) + state
        return (row, self.visited.fingerprint(row), env, depth, state)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_machine(self, slot: int) -> int:
        machine = self._machines[slot]
        words: list[int] = []
        machine.snapshot_words(words, self.atoms)
        key = tuple(words)
        ids = self._sid_ids[slot]
        sid = ids.get(key)
        if sid is None:
            sid = len(self._sid_words)
            ids[key] = sid
            self._sid_words.append(key)
            base = machine.seq_base()
            tail = machine.max_inflight_seq()
            head = machine.min_inflight_seq()
            pc = machine.poll_fetch()
            # A paused slot's leg, laid out like a ``_trans`` payload: an
            # empty output, the same sid, canonical tail/head, base 0,
            # not stepped.
            pause = (
                CycleOutput(commits=(), membus=(), halted=machine.halted),
                sid,
                None if tail is None else tail - base,
                None if head is None else head - base,
                0,
                False,
            )
            self._sid_info.append(
                (pc, 0 if pc is None else machine.fetch_occurrence(pc), pause)
            )
        return sid

    def _checker_id(self, state: tuple) -> int:
        """Intern a checker state the live product checker embodies."""
        ids = self._checker_ids
        checker_id = ids.get(state)
        if checker_id is None:
            checker_id = len(self._checker_states)
            ids[state] = checker_id
            self._checker_states.append(state)
            gated, pauses = self.product.clock_control()
            self._gates.append((gated, pauses, True in pauses))
        return checker_id

    # ------------------------------------------------------------------
    # The product protocol, memoized
    # ------------------------------------------------------------------
    def fetch_requests(self, state: tuple) -> list[FetchRequest]:
        """Fetch demands at a state (cf. the product's ``fetch_requests``)."""
        gated, pauses, _ = self._gates[state[-1]]
        if gated:
            return []
        info = self._sid_info
        predictors = self._predictors
        requests: list[FetchRequest] = []
        for slot, paused in enumerate(pauses):
            if paused:
                continue
            pc, occurrence, _ = info[state[slot]]
            if pc is None:
                continue
            requests.append(FetchRequest(slot, pc, occurrence, predictors[slot]))
        return requests

    def expansion_key(self, state: tuple, env) -> tuple:
        """``((dmem pair, state, env projection), requests)`` of a node.

        A node's whole choice expansion -- which slots and predictor
        bits the enumeration opens, every child's environment delta, and
        every transition outcome -- is a pure function of the active
        data-memory pair, the product state, and the slice of the
        environment the fetch requests can observe: the instruction (or
        openness) of each requested pc and the oracle answer for each
        nondeterministically predicted fetch.  The returned key captures
        exactly that, so the search loop can replay a memoized expansion
        recorded under the same key (``requests`` rides along for the
        memo-miss path, cached per state).
        """
        cached = self._req_memo.get(state)
        if cached is None:
            requests = self.fetch_requests(state)
            # Probe plan: per request, the pc to project and -- for
            # nondeterministically predicted fetches only -- the oracle
            # key whose answer can shape the expansion.
            probes = tuple(
                (
                    req.pc,
                    (req.pc, req.occurrence)
                    if req.predictor == "nondet"
                    else None,
                )
                for req in requests
            )
            cached = self._req_memo[state] = (requests, probes)
        requests, probes = cached
        imem = env.imem
        imem_len = len(imem)
        if not probes:
            # Nothing to project (gated drain / every slot paused): the
            # expansion cannot observe the environment at all.
            return (self._pair_id, state, imem_len, ()), requests
        imem_size = self._imem_size if self._imem_size < imem_len else imem_len
        proj = []
        prediction = env.prediction
        branch_op = Opcode.BRANCH
        for pc, pred_key in probes:
            inst = imem[pc] if 0 <= pc < imem_size else HALT
            if pred_key is not None and (inst is None or inst.op is branch_op):
                proj.append((inst, prediction(pred_key)))
            else:
                proj.append(inst)
        return (self._pair_id, state, imem_len, tuple(proj)), requests

    def transition(self, state: tuple, bundles) -> tuple:
        """One memoized product cycle from ``state`` under ``bundles``.

        Returns ``(pruned, failed, reason, child_state, quiescent)`` --
        the folded ``StepResult`` plus the canonical child and the
        quiescence flag the search loop needs.
        """
        checker_id = state[-1]
        tables = self._tables
        legs = tuple(map(dict.get, tables, zip(state, bundles)))
        gates = self._gates[checker_id]
        if gates[2] or None in legs:
            # A paused slot, or a transition not stepped yet: fill the
            # legs slot by slot.
            legs = list(legs)
            for slot, paused in enumerate(gates[1]):
                if paused:
                    legs[slot] = -1 - state[slot]
                elif legs[slot] is None:
                    key = (state[slot], bundles[slot])
                    legs[slot] = self._step_miss(tables[slot], key, slot)
            legs = tuple(legs)
        cycle_key = legs + (checker_id,)
        cached = self._cycle_memo.get(cycle_key)
        if cached is None:
            cached = self._cycle_miss(cycle_key)
        return cached

    def _step_miss(self, table: dict, key: tuple, slot: int) -> int:
        """Bind or step one machine transition a per-memory table lacks.

        The read index answers when another memory already took the
        same step and either read no data memory or found the same value
        at the one word it read; only a miss there restores and steps
        the machine.
        """
        index = self._read_index
        tid = index.get(key)
        if tid is not None:
            if tid < 0:
                tid = index.get(key + (self._mems[slot][-1 - tid],))
            if tid is not None:
                table[key] = tid
                return tid
        sid, bundle = key
        machine = self._machines[slot]
        machine.restore_words(self._sid_words[sid], 0, self.atoms)
        machine.dmem_read = None
        out = machine.step(bundle)
        word = machine.dmem_read
        tid = len(self._trans)
        self._trans.append(
            (
                out,
                self._intern_machine(slot),
                machine.max_inflight_seq(),
                machine.min_inflight_seq(),
                machine.seq_base(),
                True,
            )
        )
        table[key] = tid
        if word is None:
            index[key] = tid
        else:
            index[key] = -1 - word
            index[key + (self._mems[slot][word],)] = tid
        return tid

    def _cycle_miss(self, cycle_key: tuple) -> tuple:
        """Fold one distinct (transition legs, checker) product cycle.

        Replays the product's own ``fold_cycle`` -- the assume/assert
        ladder ``step_cycle`` ends with -- on the live product checker
        restored to the cycle's checker state, then interns the
        canonical child: the checker snapshot against the post-step
        sequence bases (a paused slot's canonical state has base 0 by
        construction).
        """
        trans = self._trans
        info = self._sid_info
        outputs, child, tails, heads, bases, stepped = zip(
            *[
                trans[leg] if leg >= 0 else info[-1 - leg][2]
                for leg in cycle_key[:-1]
            ]
        )
        product = self.product
        product.checker_restore(self._checker_states[cycle_key[-1]])
        pruned, failed, reason = product.fold_cycle(outputs, tails, heads, stepped)
        if pruned or failed:
            result = (pruned, failed, reason, None, False)
        else:
            child += (self._checker_id(product.checker_snapshot(bases)),)
            quiescent = all([out.halted for out in outputs]) and product.settled()
            result = (False, False, None, child, quiescent)
        self._cycle_memo[cycle_key] = result
        return result

    # ------------------------------------------------------------------
    # The wave push
    # ------------------------------------------------------------------
    def push_wave(self, root_index: int, depth: int, children, stack) -> None:
        """Push a node's surviving children in choice order.

        ``children`` is ``[(env, child_state), ...]``; each is appended
        to ``stack`` with its key row and fingerprint, replaying the
        serial LIFO merge exactly (see the module docstring).  There is
        no visited prefilter: an already-visited child is a silent skip
        at pop time either way, and a probe per child costs more than
        the dead push it saves.  The fingerprint is inlined
        (= ``visited.fingerprint``).
        """
        env_ids = self._env_ids
        append = stack.append
        setdefault = env_ids.setdefault
        mask = _MASK64
        for env, state in children:
            row = (root_index, setdefault(env, len(env_ids))) + state
            # repro: allow[determinism] int-only row (see fingerprint_row); within-process fingerprint
            append((row, hash(row) & mask or 1, env, depth, state))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def footprint(self) -> tuple[int, int]:
        """(visited key count, approx deep bytes of the search state).

        Counts the visited table and exact key rows plus everything
        backing them -- interned machine words, checker states, atom
        values and the environment intern dict -- and every memo: the
        per-memory step tables, the read index, the transition payloads
        and the request, expansion and cycle memos.  The number is
        comparable to the legacy engine's deep-walked visited set.
        """
        seen: set[int] = set()
        total = self.visited.nbytes
        for part in (
            self._sid_words, self._checker_states, self.atoms.values,
            self._env_ids, self._mach_tables, self._read_index, self._trans,
            self._req_memo, self._expand_memo, self._cycle_memo,
        ):
            total += deep_sizeof(part, seen)
        return self.visited.count, total
