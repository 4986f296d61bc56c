"""Competitive-ratio subsystem: the dense offline-optimum baseline.

The paper's headline metric is not an algorithm's raw termination time but
its cost *relative to successive convergecasts performed by an offline
optimum that knows the whole interaction sequence* (``opt(t)``, Section
2.3; the broadcast/convergecast duality of Theorem 8).  This package makes
that baseline cheap enough to attach to every Monte-Carlo trial:

* :mod:`repro.ratio.kernels` — the dense offline optimum: one backward
  foremost-arrival sweep over int lists (:func:`~repro.ratio.kernels.
  foremost_arrivals`, shared with the full-knowledge plan builder) and
  ``opt(t)`` for ``(B, L)`` dense index matrices, one row at a time; the
  trial-vectorized engine hands it doubling prefixes of each trial's
  committed future;
* :mod:`repro.ratio.semantics` — the scalar vocabulary: ``opt_cost``
  (offline-optimal duration in interactions), ``competitive_ratio`` and
  the documented sentinel values (:data:`~repro.ratio.semantics.
  UNREACHABLE`, :data:`~repro.ratio.semantics.RATIO_UNDEFINED`).

Invariants:

* **Differential equality** — the dense sweep is sequence-for-sequence
  equal to the pure-Python oracle in :mod:`repro.offline.convergecast`
  (``tests/test_ratio_kernels.py``); engines may therefore mix the two
  freely (the reference engine captures through the oracle, the vectorized
  engine through :func:`~repro.ratio.kernels.opt_end_matrix`) and still
  produce byte-identical metrics.
* **Ratio lower bound** — a terminated online run can never beat the
  offline optimum, so ``competitive_ratio >= 1`` exactly whenever it is
  finite (``tests/test_property_invariants.py``).
* **Read-pattern independence** — capture reads only the committed
  future, which no read pattern can change, and every engine gets
  ``opt(0)`` of the window the run consumed (``tests/test_property_invariants.py``).
"""

from .kernels import opt_end_matrix
from .semantics import (
    RATIO_UNDEFINED,
    UNREACHABLE,
    competitive_ratio,
    opt_cost_from_end,
)

__all__ = [
    "RATIO_UNDEFINED",
    "UNREACHABLE",
    "competitive_ratio",
    "opt_cost_from_end",
    "opt_end_matrix",
]
