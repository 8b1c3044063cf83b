"""Golden packed-caps violations: missing or drifting words protocol."""


class MissingWords:
    """A machine without the words protocol the transition kernel needs."""

    def snapshot(self):
        return (self._pc,)

    def restore(self, snap):
        (self._pc,) = snap

    def step(self, fetch):
        return None


class GoodBase:
    def snapshot(self):
        return (self._a,)

    def restore(self, snap):
        (self._a,) = snap

    def snapshot_words(self, out):
        out.append(self._a)

    def restore_words(self, words):
        self._a = words[0]

    def step(self, fetch):
        return None


class DriftChild(GoodBase):
    """Overrides the object layout without re-deriving the word one."""

    def snapshot(self):
        return (self._a, self._b)


class AttrDrift:
    """snapshot and snapshot_words serialize different state fields."""

    def snapshot(self):
        return (self._pc, self._regs)

    def snapshot_words(self, out):
        out.append(self._pc)

    def restore(self, snap):
        (self._pc, self._regs) = snap

    def restore_words(self, words):
        self._pc = words[0]

    def step(self, fetch):
        return None
