"""The per-trace oracle: one concrete two-run product execution.

Where the model checker *enumerates* the nondeterminism of Fig. 1(b) --
symbolic instruction slots, predictor bits, secret pairs -- the fuzzer
*samples* it: a concrete program, a concrete predictor seed, one secret
pair.  The execution itself is the unchanged product
(:class:`repro.core.products.ShadowProduct` by default): both copies
step cycle by cycle, the contract shadow logic checks the contract
constraint (assume) and the leakage assertion exactly as in exhaustive
search.  The shadow product runs each trace in *twin mode* until the
copies could differ: while neither has read a word on which the secret
memories differ, it steps copy 0 alone and skips the shadow logic
(identical outputs leave it in lockstep), and at the first such read
copy 1 catches up on the bundles it owes.  Verdicts, cycles, coverage
and counterexamples are those of stepping both copies every cycle
(``tests/fuzz/test_twin_copies.py``).

Soundness (the EXPERIMENTS.md argument, in short): a trace this oracle
classifies ``leak`` is a deterministic execution of the same product
transition system the explorer searches, ending in the same assertion
-- so its environment *is* an ``ATTACK`` counterexample (it replays
through :mod:`repro.mc.replay`).  ``ok`` and ``invalid`` traces prove
nothing: random testing inherits the one-sidedness of testing.
``invalid`` means the contract constraint pruned the input (the two
runs are not contract-equivalent -- the pair is outside Eq. (1)'s
quantifier), mirroring the explorer's assume-prune.

Trace memo (:class:`TraceMemo`): a trace is a pure function of its
secret pair and the *answers* it consumed -- the instruction at each pc
it fetched and each predictor bit it queried.  The product is
deterministic and is reset before every trace, so two trials that gave
equal answers to every query so far make the same next query (or end
the same way); a decision tree over the queries, walked with a trial's
own program and predictor seed, therefore reaches a stored leaf exactly
when the trial would replay a stored trace cycle for cycle.  Two
programs that differ only in never-fetched slots, or two predictor
seeds that agree on every bit the trace asked for, share one run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.shadow import ContractShadowLogic
from repro.events import FetchBundle
from repro.fuzz.coverage import cycle_keys
from repro.rand import predictor_bit
from repro.isa.instruction import HALT, Instruction, Opcode
from repro.mc.env import Environment
from repro.mc.result import Counterexample

TRACE_LEAK = "leak"
TRACE_OK = "ok"
TRACE_INVALID = "invalid"
TRACE_HUNG = "hung"


@dataclass(frozen=True)
class TraceResult:
    """One oracle verdict plus the evidence behind it.

    ``coverage`` is the trace's key set (sorted tuple);
    ``counterexample`` is a replay-complete
    :class:`repro.mc.result.Counterexample` when the verdict is
    ``leak`` -- the environment records the program image and exactly
    the predictor bits the trace consumed.  ``queries`` lists, in the
    order the trace first made them, each ``(query, answer)`` it
    consumed: a fetched pc with its instruction, or a ``(pc,
    occurrence)`` predictor key with its bit (the path
    :meth:`TraceMemo.insert` stores).
    """

    verdict: str
    cycles: int
    coverage: tuple[str, ...]
    reason: str | None = None
    counterexample: Counterexample | None = None
    queries: tuple = ()


def _environment(
    program: tuple[Instruction, ...],
    imem_size: int,
    used_preds: dict[tuple[int, int], bool],
) -> Environment:
    """The explorer-style environment this concrete trace denotes."""
    imem = tuple(
        program[pc] if pc < len(program) else HALT for pc in range(imem_size)
    )
    return Environment(imem=imem, preds=tuple(sorted(used_preds.items())))


def run_trace(
    product,
    program: tuple[Instruction, ...],
    dmem_pair: tuple[tuple[int, ...], tuple[int, ...]],
    pred_seed: int,
    *,
    max_cycles: int = 256,
    root_label: str = "fuzz",
) -> TraceResult:
    """Run one concrete two-run execution through the shadow logic.

    The product is reset to the secret pair, then driven with the same
    fetch protocol the model checker uses: poll fetch requests, deliver
    program instructions (``HALT`` outside the image), answer predictor
    queries from the shared seeded oracle
    (:func:`repro.rand.predictor_bit`).  ``max_cycles`` bounds
    diverging programs (verdict ``hung``).
    """
    product.reset(dmem_pair)
    n_slots = len(product.machines)
    imem_size = product.params.imem_size
    fetched: dict[int, Instruction] = {}
    used_preds: dict[tuple[int, int], bool] = {}
    queries: list[tuple] = []
    coverage: list[str] = []
    branch_op = Opcode.BRANCH
    shadow = getattr(product, "shadow", None)
    for cycle in range(max_cycles):
        bundles: list[FetchBundle | None] = [None] * n_slots
        for req in product.fetch_requests():
            pc = req.pc
            inst = fetched.get(pc)
            if inst is None:
                inst = program[pc] if 0 <= pc < len(program) else HALT
                fetched[pc] = inst
                queries.append((pc, inst))
            predicted: bool | None = None
            if inst.op is branch_op and req.predictor != "none":
                if req.predictor == "taken":
                    predicted = True
                elif req.predictor == "not_taken":
                    predicted = False
                else:
                    key = (pc, req.occurrence)
                    predicted = used_preds.get(key)
                    if predicted is None:
                        predicted = predictor_bit(pred_seed, pc, req.occurrence)
                        used_preds[key] = predicted
                        queries.append((key, predicted))
            bundles[req.slot] = FetchBundle(pc, inst, predicted)
        result = product.step_cycle(bundles)
        drain = (
            shadow is not None
            and shadow.phase == ContractShadowLogic.PHASE_DRAIN
        )
        coverage.extend(cycle_keys(product.last_outputs, drain))
        if result.failed:
            env = _environment(program, imem_size, used_preds)
            cex = Counterexample(
                root_label=root_label,
                dmem_pair=dmem_pair,
                env=env,
                depth=cycle + 1,
                reason=result.reason or "leakage",
            )
            return TraceResult(
                TRACE_LEAK,
                cycle + 1,
                tuple(sorted(set(coverage))),
                result.reason or "leakage",
                cex,
                tuple(queries),
            )
        if result.pruned:
            return TraceResult(
                TRACE_INVALID,
                cycle + 1,
                tuple(sorted(set(coverage))),
                result.reason,
                queries=tuple(queries),
            )
        if product.quiescent():
            return TraceResult(
                TRACE_OK,
                cycle + 1,
                tuple(sorted(set(coverage))),
                queries=tuple(queries),
            )
    return TraceResult(
        TRACE_HUNG,
        max_cycles,
        tuple(sorted(set(coverage))),
        queries=tuple(queries),
    )


class TraceMemo:
    """The traces one fuzz shard has run, as a decision tree over queries.

    Node ``n`` holds either a query -- a fetched pc (an ``int``) or a
    ``(pc, occurrence)`` predictor key -- or a leaf ``(verdict, cycles,
    reason)``.  One flat dict maps ``(node, answer)`` to the child, and
    ``(-1, root)`` to the first node of the traces started from secret
    pair ``root``.  Leaves carry no coverage: a hit replays a trace run
    earlier in the same shard, whose keys are all seen already.  Leaks
    are never stored, because their counterexample embeds the whole
    program image, unfetched slots included.  Owned by one
    :meth:`repro.fuzz.work.FuzzShard.run` and dropped with it.

    The memo pays off in large shards, which repeat traces: about a
    third of the trials of a 4,096-trial ``fuzz-defended`` shard hit
    (~8.7k nodes, ~1.4 MB), but only ~2% of a 64-trial one.  Once the
    tree holds ``MAX_NODES`` nodes it stops growing: stored traces
    still hit and a miss simply runs, so a shard's memory stays bounded
    whatever its batch size.
    """

    MAX_NODES = 1 << 15

    __slots__ = ("nodes", "edges")

    def __init__(self):
        self.nodes: list = []
        self.edges: dict = {}

    def lookup(self, root, program: tuple[Instruction, ...], pred_seed: int):
        """The leaf of the stored trace these answers select, or ``None``."""
        nodes, edges = self.nodes, self.edges
        size = len(program)
        node = edges.get((-1, root))
        while node is not None:
            query = nodes[node]
            if query.__class__ is not tuple:
                answer = program[query] if 0 <= query < size else HALT
            elif len(query) == 2:
                answer = predictor_bit(pred_seed, query[0], query[1])
            else:
                return query
            node = edges.get((node, answer))
        return None

    def insert(self, root, trace: TraceResult) -> None:
        """Store the path of one trace from secret pair ``root`` (not a
        leak, and not once the tree is full)."""
        if trace.verdict == TRACE_LEAK or len(self.nodes) >= self.MAX_NODES:
            return
        nodes, edges = self.nodes, self.edges
        parent, answer = -1, root
        for query, next_answer in trace.queries:
            node = edges.get((parent, answer))
            if node is None:
                node = edges[(parent, answer)] = len(nodes)
                nodes.append(query)
            parent, answer = node, next_answer
        if (parent, answer) not in edges:
            edges[(parent, answer)] = len(nodes)
            nodes.append((trace.verdict, trace.cycles, trace.reason))
