"""The vector engine: memoized stepping over numpy structure-of-arrays.

The packed engine (:mod:`repro.mc.packed`) made snapshots flat 64-bit
word buffers, but every transition of the search still re-executes the
full Python pipeline model and every visited probe still walks Python
dict machinery.  This module is the layer that actually consumes the
packed representation:

- **Machine-transition memoization.**  A core's ``step`` is a pure
  function of ``(canonical machine words, fetch bundle, data memory)``
  -- the canonical rebasing makes every search-visible quantity of a
  step frame-invariant, which is the same argument that lets the serial
  engine mix restored (rebased) and live (DFS-descent) stepping.  The
  two-copy cross product makes the *same* machine transition recur
  across many product states (measured: 92.6% of the 1.18M machine
  steps of the Fig. 2 ROB-8 cell are repeats of 87k distinct
  transitions), so the vector engine keys transitions on the interned
  machine state and replays memoized outcomes instead of stepping.
  Memo tables key on the data-memory *value*, so the two orientations
  of a mirrored secret pair -- root ``(A, B)`` side 0 and root
  ``(B, A)`` side 1 -- share one table.
- **Cycle-level composition.**  On top of the per-machine memo, one
  product cycle is keyed by ``(shadow state id, transition id pair)``:
  assumption checks, shadow-logic verdicts and the child product state
  are computed once per distinct combination on a scratch
  :class:`repro.core.shadow.ContractShadowLogic` and replayed as a
  single dict probe afterwards.  A product state is then just a triple
  of small integers ``(sid0, sid1, shadow_id)``.
- **Structure-of-arrays storage.**  :class:`FrontierArena` stores word
  rows (expansion waves, visited keys) as 2-D ``int64`` numpy arrays
  bucketed by row width -- mirroring ``PackedCodec._packers``, which
  caches one ``Struct`` per word count for the same ragged-width
  reason.  :class:`VectorVisited` is the visited set: an open-addressed
  ``uint64`` fingerprint table (zero-sentinel linear probing, the table
  scheme of :mod:`repro.mc.shared_filter`) over *exact* key rows kept
  in an arena bucket -- a fingerprint hit is confirmed against the
  stored row, so unlike the opt-in shared filter the default search
  keeps its exact-visited-set guarantee.  Probes vectorize in batches
  when an expansion wave is wide.

Wave batching and the LIFO contract
-----------------------------------
The explorer's vector path expands a node by collecting *all* surviving
children of the popped LIFO node first (a "wave"), then deduplicating,
visited-prefiltering and fingerprinting the wave in one vectorized pass
before pushing survivors in choice order.  This replays the serial
merge exactly:

- pushing in choice order preserves the serial pop order;
- a child already in the visited set at push time would be popped later
  and skipped silently (the serial engine checks visited *before*
  counting a state or charging the budget), so dropping it at push time
  changes no statistic;
- duplicate rows within one wave keep the *last* occurrence -- the LIFO
  stack pops it first, and the earlier duplicate would then be a silent
  visited skip.  (For per-node waves this is provably vacuous: each
  child of one node extends the environment with a *different*
  assignment, so wave keys are pairwise distinct.  The pass guards the
  general contract -- multi-node tranches, seeded frontiers -- at
  negligible wide-wave cost.)
- the attack short-circuit is untouched: transitions are evaluated in
  choice order and the first failure returns before any push.

Selection rides :func:`repro.mc.packed.resolve_engine`: ``auto``
prefers ``vector`` when numpy is importable and the product advertises
``vector_capable`` (two-copy shadow products with packed-capable
cores), degrading to ``packed`` -- and through packed's own rules to
``object`` -- otherwise.  ``REPRO_MC_ENGINE`` forces any of the three.
Equivalence is pinned bit-for-bit (verdicts, ``SearchStats``,
counterexamples) against both frozen engines by
``tests/mc/test_engine_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.products import FetchRequest, _check_assumptions
from repro.core.shadow import ContractShadowLogic
from repro.events import CycleOutput
from repro.isa.instruction import HALT, Opcode
from repro.mc.intern import deep_sizeof

_MASK64 = (1 << 64) - 1

#: Wave width at or above which the push path switches from scalar
#: probes to the vectorized dedup/prefilter pass (numpy call overhead
#: loses on the narrow waves that dominate mid-search DFS).
WIDE_WAVE = 8

#: Linear-probe bound for a saturated (max_capacity-pinned) table,
#: mirroring ``repro.mc.shared_filter._MAX_PROBES``.  Only reachable
#: when ``max_capacity`` forbids resizing; the explorer never pins one.
_MAX_PROBES = 32

#: Pending-row buffer length at which :class:`VectorVisited` migrates
#: buffered key rows into its arena bucket in one vectorized block
#: (per-insert scalar numpy row writes are the alternative, and they
#: cost more than the whole block assignment).
_FLUSH_ROWS = 1024


# CPython's tuple-hash constants (Modules/pyhash: the xxHash-based
# scheme used since 3.8 on 64-bit builds).  Tuple and int hashing are
# deterministic -- PYTHONHASHSEED only randomizes str/bytes -- so the
# interpreter's own C-speed ``hash()`` doubles as the scalar
# fingerprint, and the batch path replays the identical algorithm in
# numpy ``uint64`` arithmetic.
_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = np.uint64(2870177450012600261)
#: ``PyHASH_MODULUS``: the Mersenne prime 2^61 - 1 reducing int hashes.
_HASH_MODULUS = np.uint64((1 << 61) - 1)


def fingerprint_row(row) -> int:
    """Scalar fingerprint of one key row: the row's tuple hash, masked.

    One interpreter-level ``hash()`` call -- the hot path of every
    visited probe -- instead of a per-lane Python mixing loop.  The
    ``& _MASK64`` reinterprets CPython's signed ``Py_hash_t`` as the
    ``uint64`` the probe table stores.
    """
    # repro: allow[determinism] int-only rows: CPython salts only str/bytes hashes, and fingerprints never cross process boundaries
    return hash(row if type(row) is tuple else tuple(row)) & _MASK64


def fingerprint_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fingerprint_row` over a 2-D ``int64`` array.

    Replays CPython's hashing pipeline lane for lane: the per-int hash
    (magnitude folded modulo the Mersenne prime 2^61 - 1, sign
    reapplied, ``-1`` mapped to ``-2``) feeds the xxHash-style tuple
    combine (multiply, rotate-left 31, multiply), finished with the
    length term and the ``-1 -> 1546275796`` substitution.  Negating in
    ``int64`` then viewing ``uint64`` yields the exact magnitude even
    for ``INT64_MIN``, so both paths agree bit-for-bit on any row.
    """
    neg = rows < 0
    magnitude = np.where(neg, -rows, rows).view(np.uint64)
    lane = (magnitude >> np.uint64(61)) + (magnitude & _HASH_MODULUS)
    lane = np.where(lane >= _HASH_MODULUS, lane - _HASH_MODULUS, lane)
    lane = np.where(neg, np.uint64(0) - lane, lane)
    lane = np.where(
        lane == np.uint64(_MASK64), np.uint64(_MASK64 - 1), lane
    )
    acc = np.full(len(rows), _XXPRIME_5)
    for column in range(rows.shape[1]):
        acc = acc + lane[:, column] * _XXPRIME_2
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc = acc * _XXPRIME_1
    acc = acc + (np.uint64(rows.shape[1]) ^ (_XXPRIME_5 ^ np.uint64(3527539)))
    return np.where(acc == np.uint64(_MASK64), np.uint64(1546275796), acc)


class FrontierArena:
    """Append-only structure-of-arrays store of integer word rows.

    Rows of equal width share one growing 2-D ``int64`` array (ragged
    word counts bucket by length, mirroring ``PackedCodec._packers``);
    an appended row is addressed by ``(width, index)``.  The arena backs
    the visited set's exact key rows and stages expansion waves for the
    vectorized dedup/prefilter pass.
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

    @staticmethod
    def dedup_last(rows: np.ndarray) -> np.ndarray:
        """Keep-mask dropping duplicate rows, keeping each *last* copy.

        The LIFO wave-dedup rule: of equal rows the latest-pushed pops
        first, and the earlier ones would be silent visited skips.
        Implemented as one lexsort over the row columns with the
        original position as final tie-break, so each equal-row group is
        contiguous and its last element is the highest original index.
        """
        total = len(rows)
        if total <= 1:
            return np.ones(total, bool)
        position = np.arange(total)
        keys = (position,) + tuple(rows[:, c] for c in range(rows.shape[1]))
        order = np.lexsort(keys)
        sorted_rows = rows[order]
        last_of_group = np.ones(total, bool)
        last_of_group[:-1] = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
        keep = np.zeros(total, bool)
        keep[order[last_of_group]] = True
        return keep


class VectorVisited:
    """Exact visited set over fixed-width key rows, numpy-backed.

    Open-addressed ``uint64`` fingerprint table (zero = empty, linear
    probing -- the slot scheme of :mod:`repro.mc.shared_filter`) with a
    payload index into an exact key-row arena: a fingerprint hit is
    confirmed against the stored row before it counts, so membership is
    exact -- the 2^-64 collision residual the shared filter accepts is
    *not* accepted here.  The table resizes by doubling at 50% load;
    only a ``max_capacity`` pin (tests) can make inserts lossy, and
    those are counted in :attr:`dropped` like the shared filter's
    degraded mode.
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
        # Scalar probes go through zero-copy memoryviews of the same
        # buffers: element access returns plain Python ints without the
        # ndarray scalar-boxing overhead, while batch probes keep using
        # the ndarrays themselves.
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
    # Fingerprints (shared scalar/vector scheme)
    # ------------------------------------------------------------------
    def fingerprint(self, row) -> int:
        """64-bit fingerprint of a row, zero-sentinel-adjusted."""
        return fingerprint_row(row) or 1

    def fingerprint_batch(self, rows: np.ndarray) -> np.ndarray:
        fps = fingerprint_rows(rows)
        fps[fps == 0] = 1  # zero is the empty-slot sentinel
        return fps

    # ------------------------------------------------------------------
    # Scalar probes (the per-pop hot path)
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
                # Saturated pinned table: degrade to lossy, like the
                # shared filter's full-window drop, and count it.
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
    # Batch probes (the wave prefilter)
    # ------------------------------------------------------------------
    def contains_batch(self, rows: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """Vectorized membership over a wave of rows.

        Probes all rows in lockstep rounds: each round gathers one slot
        per still-unresolved row; empty slots resolve to absent,
        fingerprint matches are confirmed exactly (rare -- only true
        revisits or 64-bit collisions reach the row compare), occupied
        foreign slots advance to the next probe.  Exactness matches the
        scalar path.
        """
        self._flush()  # payload indices must all resolve in the arena
        total = len(rows)
        result = np.zeros(total, bool)
        unresolved = np.arange(total)
        index = fps & np.uint64(self._mask)
        one = np.uint64(1)
        mask = np.uint64(self._mask)
        table = self._table
        while len(unresolved):
            slots = table[index[unresolved]]
            resolved = slots == 0  # empty slot: definitely absent
            for relative in np.nonzero(slots == fps[unresolved])[0]:
                wave_index = unresolved[relative]
                if self._row_equal(
                    int(self._payload[int(index[wave_index])]),
                    rows[wave_index],
                ):
                    result[wave_index] = True
                    resolved[relative] = True
                # else: foreign row sharing the fingerprint -- keep probing
            unresolved = unresolved[~resolved]
            index[unresolved] = (index[unresolved] + one) & mask
        return result

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
    """Memoizing product engine over interned machine/shadow states.

    One engine serves one :class:`repro.mc.explorer.Explorer`.  Product
    states are ``(sid0, sid1, shadow_id)`` triples of dense ids; the
    real product materializes only on memo misses (one machine restore
    + step per *distinct* transition, one scratch shadow replay per
    distinct cycle combination).  See the module docstring for the
    frame-invariance argument that makes canonical-frame memoization
    bit-identical to the serial engine.
    """

    def __init__(self, product):
        if not getattr(product, "vector_capable", False) or not product.packed_capable:
            raise ValueError(f"product {product!r} cannot run the vector engine")
        self.product = product
        machines = product.machines
        self._machine0, self._machine1 = machines
        self._predictors = [m.config.predictor for m in machines]
        self._assumptions = product.assumptions
        self._gate_fetch = product.gate_fetch
        from repro.mc.packed import AtomTable

        self.atoms = AtomTable()
        self.arena = FrontierArena()
        #: Visited rows: (root_index, env_id, sid0, sid1, shadow_id).
        self.visited = VectorVisited(width=5, arena=self.arena)
        # Machine-state interning: canonical packed words -> dense sid.
        self._sid_ids: dict[tuple, int] = {}
        self._sid_words: list[tuple] = []
        # Per-sid frame-invariant facts: (halted, poll pc, occurrence,
        # canonical tail, canonical head, cached pause CycleOutput).
        self._sid_info: list[tuple] = []
        # Shadow-state interning (canonical shadow snapshot tuples).
        self._shadow_ids: dict[tuple, int] = {}
        self._shadow_states: list[tuple] = []
        # Transition memo: one dict per data-memory value (sid, bundle)
        # -> dense transition id; payloads live in ``_trans``.
        self._mach_tables: dict[tuple, dict] = {}
        self._table0: dict | None = None
        self._table1: dict | None = None
        #: tid -> (CycleOutput, new_sid, tail, head, new seq base).
        self._trans: list[tuple] = []
        # Cycle memo: (shadow_id, leg0, leg1) -> folded StepResult where
        # a leg is a transition id (stepped) or -1 - sid (paused).
        self._cycle_memo: dict = {}
        # Node-expansion memo: fetch requests per product state, and the
        # choice expansion folded to a summary per (state, env
        # projection) -- ``(transitions, pruned, reason counts, pushed
        # children's env deltas, terminal attack or None)``; see
        # :meth:`expansion_key` and ``Explorer._search_vector``.
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
        self._scratch_shadow = ContractShadowLogic(
            product.contract, gate_fetch=product.gate_fetch
        )
        # Environment interning for visited rows (value-keyed; keeps
        # each distinct environment alive once, like the object
        # engine's visited keys do).
        self._env_ids: dict = {}

    # ------------------------------------------------------------------
    # Root / seeding management
    # ------------------------------------------------------------------
    def select_root(self, root) -> None:
        """Reset the product to a root and bind its memo tables.

        Tables key on the data-memory *value*: the copies of one root
        see different memories, and the mirror root's opposite side
        shares the table (same core config, same memory -- the same
        pure transition function).
        """
        self.product.reset(root.dmem_pair)
        tables = self._mach_tables
        first, second = root.dmem_pair
        table = tables.get(first)
        if table is None:
            table = tables[first] = {}
        self._table0 = table
        table = tables.get(second)
        if table is None:
            table = tables[second] = {}
        self._table1 = table
        pair_ids = self._pair_ids
        self._pair_id = pair_ids.setdefault(root.dmem_pair, len(pair_ids))

    def release_root(self) -> None:
        """Free the search state of a root the DFS has finished.

        Visited rows embed the root index and expansion keys the
        data-memory pair id, so once the search has moved to another
        root neither can hit again.  The machine and cycle memos, the
        request memo and the intern tables are root-independent and
        stay for the next root.
        """
        self.arena = FrontierArena()
        self.visited = VectorVisited(width=5, arena=self.arena)
        self._expand_memo.clear()

    def capture(self) -> tuple[int, int, int]:
        """Intern the product's live state as a (sid0, sid1, shadow_id).

        The live state must be canonical-frame (freshly reset or
        restored from a canonical snapshot), which is every caller: root
        seeding and seeded-frontier re-encoding.
        """
        machine0, machine1 = self.product.machines
        sid0 = self._intern_machine(machine0)
        sid1 = self._intern_machine(machine1)
        shadow = self.product.shadow.snapshot(
            (machine0.seq_base(), machine1.seq_base())
        )
        return (sid0, sid1, self._shadow_id(shadow))

    def seed_node(self, root_index: int, env, state, depth: int) -> tuple:
        """Build one stack node (row, fingerprint, env, depth, state)."""
        env_ids = self._env_ids
        env_id = env_ids.setdefault(env, len(env_ids))
        row = (root_index, env_id, state[0], state[1], state[2])
        return (row, self.visited.fingerprint(row), env, depth, state)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_machine(self, machine) -> int:
        words: list[int] = []
        machine.snapshot_words(words, self.atoms)
        key = tuple(words)
        sid = self._sid_ids.get(key)
        if sid is None:
            sid = len(self._sid_words)
            self._sid_ids[key] = sid
            self._sid_words.append(key)
            base = machine.seq_base()
            tail = machine.max_inflight_seq()
            head = machine.min_inflight_seq()
            pc = machine.poll_fetch()
            halted = machine.halted
            self._sid_info.append(
                (
                    halted,
                    pc,
                    0 if pc is None else machine.fetch_occurrence(pc),
                    None if tail is None else tail - base,
                    None if head is None else head - base,
                    CycleOutput(commits=(), membus=(), halted=halted),
                )
            )
        return sid

    def _shadow_id(self, shadow: tuple) -> int:
        ids = self._shadow_ids
        shadow_id = ids.get(shadow)
        if shadow_id is None:
            shadow_id = len(self._shadow_states)
            ids[shadow] = shadow_id
            self._shadow_states.append(shadow)
        return shadow_id

    # ------------------------------------------------------------------
    # The product protocol, memoized
    # ------------------------------------------------------------------
    def fetch_requests(self, state: tuple) -> list[FetchRequest]:
        """Fetch demands at a state (cf. ``ShadowProduct.fetch_requests``)."""
        sid0, sid1, shadow_id = state
        shadow = self._shadow_states[shadow_id]
        if shadow[0] == ContractShadowLogic.PHASE_LOCKSTEP:
            paused0 = paused1 = False
        else:
            if self._gate_fetch:
                return []
            paused0 = len(shadow[2]) > 0
            paused1 = len(shadow[3]) > 0
        info = self._sid_info
        predictors = self._predictors
        requests: list[FetchRequest] = []
        for slot, sid, paused in ((0, sid0, paused0), (1, sid1, paused1)):
            if paused:
                continue
            facts = info[sid]
            pc = facts[1]
            if pc is None:
                continue
            requests.append(FetchRequest(slot, pc, facts[2], predictors[slot]))
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
            # Nothing to project (gated drain / both sides paused): the
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
        sid0, sid1, shadow_id = state
        shadow = self._shadow_states[shadow_id]
        if shadow[0] == ContractShadowLogic.PHASE_LOCKSTEP:
            paused0 = paused1 = False
        else:
            paused0 = len(shadow[2]) > 0
            paused1 = len(shadow[3]) > 0
        if paused0:
            leg0 = -1 - sid0
        else:
            table = self._table0
            key = (sid0, bundles[0])
            leg0 = table.get(key)
            if leg0 is None:
                leg0 = self._step_miss(table, key, self._machine0)
        if paused1:
            leg1 = -1 - sid1
        else:
            table = self._table1
            key = (sid1, bundles[1])
            leg1 = table.get(key)
            if leg1 is None:
                leg1 = self._step_miss(table, key, self._machine1)
        cycle_key = (shadow_id, leg0, leg1)
        cached = self._cycle_memo.get(cycle_key)
        if cached is None:
            cached = self._cycle_miss(cycle_key)
        return cached

    def _step_miss(self, table: dict, key: tuple, machine) -> int:
        """Materialize and step one distinct machine transition."""
        sid, bundle = key
        machine.restore_words(self._sid_words[sid], 0, self.atoms)
        out = machine.step(bundle)
        tid = len(self._trans)
        self._trans.append(
            (
                out,
                self._intern_machine(machine),
                machine.max_inflight_seq(),
                machine.min_inflight_seq(),
                machine.seq_base(),
            )
        )
        table[key] = tid
        return tid

    def _cycle_miss(self, cycle_key: tuple) -> tuple:
        """Fold one distinct (shadow, transition pair) product cycle.

        Mirrors ``ShadowProduct.step_cycle`` stage for stage on a
        scratch shadow: assumption check, shadow verdicts, the
        stuck-drain prune, then the canonical child state (shadow
        snapshot against the post-step sequence bases; a paused side's
        canonical state has base 0 by construction).
        """
        shadow_id, leg0, leg1 = cycle_key
        trans = self._trans
        info = self._sid_info
        if leg0 < 0:
            facts = info[-1 - leg0]
            out0, new_sid0, tail0, head0, base0 = (
                facts[5], -1 - leg0, facts[3], facts[4], 0,
            )
            stepped0 = False
        else:
            out0, new_sid0, tail0, head0, base0 = trans[leg0]
            stepped0 = True
        if leg1 < 0:
            facts = info[-1 - leg1]
            out1, new_sid1, tail1, head1, base1 = (
                facts[5], -1 - leg1, facts[3], facts[4], 0,
            )
            stepped1 = False
        else:
            out1, new_sid1, tail1, head1, base1 = trans[leg1]
            stepped1 = True
        outputs = (out0, out1)
        result = None
        if self._assumptions:
            reason = _check_assumptions(self._assumptions, outputs)
            if reason is not None:
                result = (True, False, reason, None, False)
        if result is None:
            shadow = self._scratch_shadow
            shadow.restore(self._shadow_states[shadow_id], (0, 0))
            verdict = shadow.on_cycle(
                outputs, (tail0, tail1), (head0, head1), (stepped0, stepped1)
            )
            if verdict.assume_violated:
                result = (True, False, "contract", None, False)
            elif verdict.assertion_failed:
                result = (False, True, "leakage", None, False)
            elif (
                shadow.phase == ContractShadowLogic.PHASE_DRAIN
                and out0.halted
                and out1.halted
            ):
                result = (True, False, "stuck-drain", None, False)
            else:
                child = (
                    new_sid0,
                    new_sid1,
                    self._shadow_id(shadow.snapshot((base0, base1))),
                )
                quiescent = (
                    out0.halted
                    and out1.halted
                    and shadow.phase == ContractShadowLogic.PHASE_LOCKSTEP
                )
                result = (False, False, None, child, quiescent)
        self._cycle_memo[cycle_key] = result
        return result

    # ------------------------------------------------------------------
    # The wave push
    # ------------------------------------------------------------------
    def push_wave(self, root_index: int, depth: int, children, stack) -> None:
        """Push a node's surviving children, vectorized when wide.

        ``children`` is ``[(env, child_state), ...]`` in choice order;
        survivors are appended to ``stack`` in that order, replaying the
        serial LIFO merge exactly (see the module docstring).
        """
        env_ids = self._env_ids
        visited = self.visited
        if len(children) < WIDE_WAVE:
            # Narrow wave: no prefilter -- an already-visited child is a
            # silent skip at pop time either way (bit-identical), and on
            # the narrow waves that dominate mid-search DFS a scalar
            # probe per child costs more than the dead push it saves.
            # The fingerprint is inlined (= ``visited.fingerprint``).
            append = stack.append
            setdefault = env_ids.setdefault
            mask = _MASK64
            for env, state in children:
                env_id = setdefault(env, len(env_ids))
                row = (root_index, env_id, state[0], state[1], state[2])
                # repro: allow[determinism] int-only row (see fingerprint_row); within-process fingerprint
                append((row, hash(row) & mask or 1, env, depth, state))
            return
        rows = np.empty((len(children), 5), np.int64)
        for index, (env, state) in enumerate(children):
            rows[index] = (
                root_index,
                env_ids.setdefault(env, len(env_ids)),
                state[0],
                state[1],
                state[2],
            )
        fps = visited.fingerprint_batch(rows)
        keep = FrontierArena.dedup_last(rows)
        keep &= ~visited.contains_batch(rows, fps)
        for index in np.nonzero(keep)[0]:
            row = tuple(int(word) for word in rows[index])
            env, state = children[index]
            stack.append((row, int(fps[index]), env, depth, state))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def footprint(self) -> tuple[int, int]:
        """(visited key count, approx deep bytes of the search state).

        Counts the visited table and exact key rows plus everything
        backing them -- interned machine words, shadow states, atom
        values and the environment intern dict -- so the number is
        comparable to the object/packed engines' visited + intern
        accounting.
        """
        seen: set[int] = set()
        total = self.visited.nbytes
        total += deep_sizeof(self._sid_words, seen)
        total += deep_sizeof(self._shadow_states, seen)
        total += deep_sizeof(self.atoms.values, seen)
        total += deep_sizeof(self._env_ids, seen)
        total += deep_sizeof(self._req_memo, seen)
        total += deep_sizeof(self._expand_memo, seen)
        total += deep_sizeof(self._cycle_memo, seen)
        return self.visited.count, total
