"""The sanctioned clock: every monotonic read funnels through here.

Trace spans must be stamped from the same timeline the scheduler
budgets against, so this module is the single place the package reads
a clock: :data:`monotonic`.  Callers go through the module attribute
-- ``clock.monotonic()`` -- so that every clock read in the package is
visible as one.

The determinism lint (:mod:`repro.analysis`) flags direct clock reads
everywhere else in the package; this file carries the one sanctioned
file-level waiver.
"""

# repro: allow-file[determinism] the one sanctioned clock module; all other direct clock reads are lint errors

from __future__ import annotations

import time as _time

#: Monotonic seconds (deadlines, span timestamps).
monotonic = _time.monotonic

