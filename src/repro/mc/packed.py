"""The tagged-word state format the transition kernel consumes.

Every machine (ISA machine, in-order core, OoO core) and the Contract
Shadow Logic flatten their canonical state into a list of integer words
through ``snapshot_words(out, atoms)`` and read it back through
``restore_words(words, pos, atoms)``.  The memoized transition kernel
(:mod:`repro.mc.vector`) interns those word rows as dense machine-state
ids:

- **Scalars pack inline.**  Each word carries a 2-bit tag in its low
  bits: ``value << 2`` for integers (bools encode as 0/1, preserving
  ``True == 1`` equality), the reserved word ``1`` for ``None``, and
  ``(atom_id << 2) | 2`` for interned atoms.  Python's arbitrary-width
  shifts keep negative values exact.
- **Substructures intern as atoms.**  Variable or object-valued pieces
  (the register file, each ROB entry, cache tags, branch-occurrence
  maps, pending-observation queues) are frozen to small tuples and
  interned in an :class:`AtomTable`; the row stores their dense ids.
  Equal substructures get equal ids -- dict equality is the same
  relation as tuple equality of the object snapshots -- so word
  equality coincides exactly with object-snapshot equality.

The kernel is pinned bit-identical to :mod:`repro.mc.legacy` by
``tests/mc/test_engine_equivalence.py``: same verdicts, same
``SearchStats``, same counterexamples.
"""

from __future__ import annotations

#: 2-bit word tags (low bits).
TAG_SCALAR = 0
TAG_NONE = 1
TAG_ATOM = 2

#: The unique encoding of ``None``.
NONE_WORD = TAG_NONE


class AtomTable:
    """Equality-keyed dense interning of snapshot substructures.

    ``id_of`` maps a hashable atom to a stable small integer (first
    encounter wins); ``values`` decodes ids back.  One table lives per
    :class:`repro.mc.vector.VectorEngine`, so ids are consistent across
    every word row of one search.
    """

    __slots__ = ("_ids", "values")

    def __init__(self):
        self._ids: dict = {}
        self.values: list = []

    def id_of(self, atom) -> int:
        ids = self._ids
        index = ids.get(atom)
        if index is None:
            index = len(self.values)
            ids[atom] = index
            self.values.append(atom)
        return index


# Kept only because the frozen perfbench/workloads.py imports it and
# passes three arguments: there is one engine left to resolve to.
def resolve_engine(requested: str, product, _unused: object = None) -> str:
    """The state engine every product runs on: always ``"vector"``."""
    return "vector"
