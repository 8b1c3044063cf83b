"""The named core factories -- the picklable face of a design.

Multiprocess campaigns ship :class:`repro.core.verifier.VerificationTask`
objects to worker processes, so every task field must survive ``pickle``.
The one field that historically did not is ``core_factory``: the drivers
built cores with closures (``lambda: simple_ooo(...)``), which the pickle
protocol rejects.  A :class:`CoreSpec` replaces the closure with data --
the *name* of a core factory plus its keyword arguments -- while
staying a zero-argument callable, so every existing consumer
(``Product`` machine construction, ``task.build_roots()``, the LEAVE and
UPEC comparison verifiers) keeps working unchanged.

:data:`CORE_FACTORIES` is a constant: the four evaluated cores under
the names the paper's tables use.  A name therefore means the same
design in every worker process, with nothing to register at import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.isa.params import MachineParams
from repro.uarch.boom import boom
from repro.uarch.inorder import InOrderCore
from repro.uarch.simple_ooo import simple_ooo
from repro.uarch.superscalar import ridecore


def _build_inorder(params: MachineParams | None = None) -> InOrderCore:
    """The Sodor-like in-order core (positional-arg shim)."""
    return InOrderCore(params if params is not None else MachineParams())


#: Name -> factory.  Values are ordinary (picklable-by-reference)
#: module-level callables; specs store only the name.
CORE_FACTORIES: dict[str, Callable[..., object]] = {
    "inorder": _build_inorder,
    "simple_ooo": simple_ooo,
    "ridecore": ridecore,
    "boom": boom,
}


@dataclass(frozen=True)
class CoreSpec:
    """A picklable zero-argument core factory: factory name + kwargs.

    Drop-in replacement for the ``lambda: <core>(...)`` closures in
    verification tasks; building the core is just calling the spec.
    Keyword arguments are stored as a sorted tuple of pairs so specs are
    hashable and their identity is order-insensitive.
    """

    factory: str
    kwargs: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self):
        if self.factory not in CORE_FACTORIES:
            raise ValueError(
                f"unknown core factory {self.factory!r}; "
                f"known: {', '.join(sorted(CORE_FACTORIES))}"
            )
        object.__setattr__(self, "kwargs", tuple(sorted(self.kwargs)))

    def __call__(self) -> object:
        return CORE_FACTORIES[self.factory](**dict(self.kwargs))

    @property
    def params(self) -> MachineParams:
        """Architectural parameters of the core this spec builds."""
        return self().params

    def describe(self) -> str:
        """Stable human-readable identity, e.g. for JSONL logs."""
        parts = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        return f"{self.factory}({parts})"


def core_spec(factory: str, **kwargs: Any) -> CoreSpec:
    """Convenience constructor: ``core_spec("simple_ooo", rob_size=8)``."""
    return CoreSpec(factory=factory, kwargs=tuple(kwargs.items()))

