"""The paper's contribution: contracts, shadow logic and verifiers.

- :mod:`repro.core.contracts` -- the software-hardware contracts (Eq. 1).
- :mod:`repro.core.shadow` -- Contract Shadow Logic (Listing 1): two-phase
  ISA-trace extraction, drain tracking and clock-pause synchronization.
- :mod:`repro.core.products` -- the designs under verification: the
  two-machine shadow product (Fig. 1b) and the four-machine baseline
  product (Fig. 1a).
- :mod:`repro.core.verifier` -- the user-facing entry point (`verify`)
  over the model checker.
- :mod:`repro.core.leave` -- the LEAVE-style invariant-search comparison.
- :mod:`repro.core.upec` -- the UPEC-style source-restricted comparison.
- :mod:`repro.core.assumptions` -- attack-exclusion assumptions (§7.1.4).

The package imports none of its modules: import the submodule you need.
The model checker (:mod:`repro.mc`) imports :mod:`repro.core.products`
and the verifier imports the model checker, so an eager package init
would close an import cycle.
"""
