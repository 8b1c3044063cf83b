"""The symbolic environment: program memory and predictor oracle.

An :class:`Environment` records every nondeterministic input choice made
along a search path:

- ``imem``: the partially concretized symbolic instruction memory (one
  entry per slot, ``None`` = not yet fetched by anyone), and
- ``preds``: the branch-predictor oracle, an uninterpreted function
  ``(pc, occurrence) -> taken`` concretized on demand.  Both machine
  copies consult the *same* oracle, so predictions can never differ
  across copies for the same fetch history -- predictions are inputs,
  not secret-dependent state.

Environments are immutable and hashable; extending one returns a new
environment, so search nodes can share structure.

Hot-path notes: environments appear in every visited-set key of the
model checker and are consulted once per fetch request per choice, so
this class is tuned for the explorer's inner loop:

- equality and ordering of the *value* stay exactly what the historical
  ``NamedTuple`` implementation had -- ``(imem, preds)`` decides both
  ``==`` and ``hash`` -- but the hash is computed once and cached (a
  search node's environment is hashed once per visited-set key instead
  of re-walking the instruction tuple every time), and
- the predictor oracle is backed by a dict (shared structurally across
  the environments of one search path), so :meth:`prediction` is a
  single dict probe instead of the historical linear scan over
  ``preds``.
"""

from __future__ import annotations

from repro.isa.instruction import HALT, Instruction
from repro.isa.program import Program

#: Predictor-oracle key: (pc, capped per-machine fetch occurrence).
PredKey = tuple[int, int]


class Environment:
    """All input nondeterminism resolved so far along one search path.

    Value semantics are carried by the two public attributes ``imem``
    (tuple of instructions / ``None``) and ``preds`` (sorted tuple of
    ``(PredKey, taken)`` pairs); two environments are equal iff those
    match, exactly like the historical ``NamedTuple``.
    """

    __slots__ = ("imem", "preds", "_pred_map", "_hash")

    def __init__(
        self,
        imem: tuple[Instruction | None, ...],
        preds: tuple[tuple[PredKey, bool], ...] = (),
    ):
        self.imem = imem
        self.preds = preds
        self._pred_map = dict(preds)
        self._hash: int | None = None

    @classmethod
    def empty(cls, imem_size: int) -> "Environment":
        """A fully symbolic environment."""
        return cls(imem=(None,) * imem_size, preds=())

    # ------------------------------------------------------------------
    # Value semantics (the visited-set contract)
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.imem, self.preds))
            self._hash = cached
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Environment):
            return NotImplemented
        return self.imem == other.imem and self.preds == other.preds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Environment(imem={self.imem!r}, preds={self.preds!r})"

    def __reduce__(self):
        # Pickle only the value; the dict and cached hash rebuild locally
        # (keeps Counterexample pickles small).
        return (Environment, (self.imem, self.preds))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def slot(self, pc: int) -> Instruction | None:
        """Instruction at a pc: concrete, ``HALT`` out of range, or ``None``."""
        if 0 <= pc < len(self.imem):
            return self.imem[pc]
        return HALT

    def prediction(self, key: PredKey) -> bool | None:
        """Oracle answer for a fetch, if already concretized."""
        return self._pred_map.get(key)

    # ------------------------------------------------------------------
    # Extensions (immutable: each returns a new environment)
    # ------------------------------------------------------------------
    def with_slots(self, assignments: dict[int, Instruction]) -> "Environment":
        """Concretize instruction-memory slots."""
        imem = list(self.imem)
        for pc, inst in assignments.items():
            imem[pc] = inst
        env = Environment.__new__(Environment)
        env.imem = tuple(imem)
        env.preds = self.preds
        env._pred_map = self._pred_map  # shared: never mutated in place
        env._hash = None
        return env

    def with_predictions(self, assignments: dict[PredKey, bool]) -> "Environment":
        """Concretize predictor-oracle entries."""
        merged = dict(self._pred_map)
        merged.update(assignments)
        env = Environment.__new__(Environment)
        env.imem = self.imem
        env.preds = tuple(sorted(merged.items()))
        env._pred_map = merged
        env._hash = None
        return env

    # ------------------------------------------------------------------
    # Denotations
    # ------------------------------------------------------------------
    def program(self) -> Program:
        """The concrete program this environment denotes.

        Unconcretized slots were never fetched on the failing path, so any
        instruction completes the counterexample; ``HALT`` keeps it short.
        """
        return Program(inst if inst is not None else HALT for inst in self.imem)

    def predictor_map(self) -> dict[PredKey, bool]:
        """The concretized oracle entries as a dict."""
        return dict(self._pred_map)
