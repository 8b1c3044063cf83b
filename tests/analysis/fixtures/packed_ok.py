"""Near-miss negatives: matched layouts, products, exemptions."""

from typing import Protocol


class WordsCore:
    """Full words protocol; both layouts read the same state fields."""

    def snapshot(self):
        return (self._pc, self._regs)

    def snapshot_words(self, out):
        out.extend((self._pc, self._regs))

    def restore(self, snap):
        (self._pc, self._regs) = snap

    def restore_words(self, words):
        self._pc = words[0]
        self._regs = tuple(words[1:])

    def step(self, fetch):
        return None


class MachineProtocol(Protocol):
    """Interface definitions are exempt: nothing to implement."""

    def snapshot(self): ...

    def restore(self, snap): ...

    def step(self, fetch): ...


class NotAMachine:
    """Defines snapshot only; not machine-like, no words required."""

    def snapshot(self):
        return ()


class Product:
    """A product steps machines (``step_cycle``, not ``step``): the
    kernel flattens its machines, never the product itself."""

    def snapshot(self):
        return (self._m,)

    def restore(self, snap):
        (self._m,) = snap

    def step_cycle(self):
        return None


class ReportingCore(WordsCore):
    """Every step-time data-memory read assigns ``dmem_read``; the
    set-up methods load the memory and are exempt."""

    def __init__(self, dmem):
        self._dmem = tuple(dmem)
        self.dmem_read = None

    def reset(self, dmem):
        self._dmem = tuple(dmem or self._dmem)

    def step(self, fetch):
        self.dmem_read = fetch
        return self._dmem[fetch]


class Cache:
    """Not machine-like: reading ``_dmem`` here needs no report."""

    def lookup(self, word):
        return self._dmem[word]
