"""Family-constraint-preserving mutation operators on committed schedules.

The adversarial search (:mod:`repro.search.loop`) climbs over *materialized*
committed sequences: a schedule here is the whole committed future of one
adversary draw, held as the same dense node-index arrays the batched engines
consume.  Every operator takes a valid schedule and returns a new valid
schedule plus a :class:`MutationRecord` — a concrete, RNG-free description
of the edit (the exact positions, endpoints and, for splice, the donor pairs
verbatim).  Replaying a lineage of records through :func:`apply_mutation`
reproduces the mutated schedule bit-for-bit with no random state at all,
which is what lets the worst-case corpus store lineages instead of arrays
when it wants to explain a find.

Validity is machine-checked, not assumed: :class:`FamilyInvariant` knows the
constraints a family places on its committed sequences (length preservation,
index bounds, no self-interactions, and the family's pair support) and
:meth:`FamilyInvariant.verify` raises on any violation.  :func:`mutate`
verifies every schedule it emits, so an operator bug cannot leak an
out-of-family schedule into the search pool — the proof hook the search
loop and the property tests share.

Operator catalogue (all length-preserving):

* ``swap`` — exchange the meetings at two time slots.
* ``delay`` — move one meeting to a later slot, shifting the window between
  them one step earlier.  Proposals are biased toward the last few
  sink-involving meetings before the parent's scored duration: delaying the
  meeting that completed the run is the single most effective way to grow
  the competitive ratio while leaving the offline optimum's early prefix
  untouched.
* ``advance`` — move one meeting to an earlier slot (the mirror image;
  proposals pull random meetings into the early window to perturb the
  offline optimum).
* ``retarget`` — rewrite one endpoint of one meeting to a different node.
* ``splice`` — overwrite a window with the same window of a donor schedule
  (another pool member), recombining two independent draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.data import NodeId
from ..core.interaction import InteractionSequence

__all__ = [
    "ADVANCE_WINDOW",
    "FamilyInvariant",
    "MutationContext",
    "MutationError",
    "MutationInvariantError",
    "MutationRecord",
    "OPERATORS",
    "Schedule",
    "apply_mutation",
    "default_operator_weights",
    "invariant_for",
    "materialize_base",
    "mutate",
    "propose_mutation",
]

#: Early-window width (in interaction slots) that ``advance`` proposals
#: target — meetings pulled before this point perturb the offline optimum's
#: convergecast prefix.
ADVANCE_WINDOW = 500

#: Tail width (in sink-involving meetings) that ``delay`` proposals sample
#: from, counted backwards from the parent's scored duration.
_DELAY_TAIL = 3

#: Splice window bounds (in interaction slots).
_SPLICE_MIN = 64
_SPLICE_MAX = 1024

OPERATORS = ("swap", "delay", "advance", "retarget", "splice")


class MutationError(ValueError):
    """A mutation could not be proposed or applied."""


class MutationInvariantError(MutationError):
    """A schedule violates its family invariant (the proof hook fired)."""


@dataclass(frozen=True)
class Schedule:
    """One materialized committed sequence as dense node-index arrays.

    ``i``/``j`` are positions into ``range(n)`` (the search always works on
    the canonical dense node set), one entry per interaction slot.  The
    arrays are never mutated in place — operators copy.
    """

    i: np.ndarray
    j: np.ndarray
    n: int

    @property
    def length(self) -> int:
        return int(self.i.shape[0])

    def to_sequence(self) -> InteractionSequence:
        """The schedule as an :class:`InteractionSequence` over ``range(n)``."""
        pairs = list(zip(self.i.tolist(), self.j.tolist()))
        return InteractionSequence.from_pairs(pairs)

    def digest_key(self) -> Tuple[bytes, bytes]:
        """Hashable content key (used for determinism tests, not identity)."""
        return (self.i.tobytes(), self.j.tobytes())


@dataclass(frozen=True)
class MutationContext:
    """Score feedback that biases operator proposals.

    ``duration`` is the parent candidate's scored termination time (``None``
    when the parent did not terminate); ``sink_index`` is the sink's dense
    index.  Proposals only *read* the context — the emitted record is
    concrete, so replay needs neither the context nor the RNG.
    """

    sink_index: int
    horizon: int
    duration: Optional[int] = None


@dataclass(frozen=True)
class MutationRecord:
    """A concrete, RNG-free description of one applied mutation.

    ``params`` holds only JSON-serialisable scalars and lists (splice stores
    the donor window's pairs verbatim), so a lineage round-trips through the
    corpus store and replays deterministically via :func:`apply_mutation`.
    """

    op: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"op": self.op, "params": dict(self.params)}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "MutationRecord":
        return cls(op=str(payload["op"]), params=dict(payload["params"]))


class FamilyInvariant:
    """Machine-checkable invariants of one adversary family's schedules.

    Every committed family in the repo draws independent contacts whose
    support is *all ordered pairs of distinct nodes* (community adversaries
    keep a nonzero inter-community contact probability unless configured
    with ``p_intra >= 1``, which :func:`invariant_for` rejects because its
    support would depend on the seed-specific community draw).  The
    invariant therefore checks structure, not distribution: length
    preservation, dtype, index bounds and distinctness.
    """

    def __init__(self, family: str, n: int, horizon: int) -> None:
        self.family = family
        self.n = int(n)
        self.horizon = int(horizon)

    def check(self, schedule: Schedule) -> List[str]:
        """All invariant violations of ``schedule`` (empty list = valid)."""
        violations: List[str] = []
        i, j = schedule.i, schedule.j
        if i.ndim != 1 or j.ndim != 1:
            violations.append("index arrays must be one-dimensional")
            return violations
        if i.dtype != np.int64 or j.dtype != np.int64:
            violations.append(
                f"index arrays must be int64, got {i.dtype}/{j.dtype}"
            )
        if i.shape[0] != j.shape[0]:
            violations.append(
                f"index arrays disagree on length: {i.shape[0]} vs {j.shape[0]}"
            )
            return violations
        if schedule.n != self.n:
            violations.append(
                f"schedule is over {schedule.n} nodes, family expects {self.n}"
            )
        if i.shape[0] != self.horizon:
            violations.append(
                f"mutations are length-preserving: expected {self.horizon} "
                f"slots, got {i.shape[0]}"
            )
        if i.size:
            low = min(int(i.min()), int(j.min()))
            high = max(int(i.max()), int(j.max()))
            if low < 0 or high >= self.n:
                violations.append(
                    f"indices must lie in [0, {self.n}), found [{low}, {high}]"
                )
            if bool(np.any(i == j)):
                where = int(np.flatnonzero(i == j)[0])
                violations.append(f"self-interaction at slot {where}")
        return violations

    def verify(self, schedule: Schedule) -> None:
        """Raise :class:`MutationInvariantError` unless ``schedule`` is valid."""
        violations = self.check(schedule)
        if violations:
            raise MutationInvariantError(
                f"family {self.family!r} invariant violated: "
                + "; ".join(violations)
            )


def invariant_for(
    family: str,
    n: int,
    horizon: int,
    params: Optional[Mapping[str, Any]] = None,
) -> FamilyInvariant:
    """The invariant the search enforces for one ``family`` at one size.

    Raises:
        MutationError: for unknown families, or for configurations whose
            pair support is seed-dependent (``community`` with
            ``p_intra >= 1``) and therefore not checkable family-wide.
    """
    from ..adversaries.factory import ADVERSARY_FAMILIES

    if family not in ADVERSARY_FAMILIES:
        raise MutationError(
            f"unknown adversary family {family!r}; "
            f"available: {sorted(ADVERSARY_FAMILIES)}"
        )
    if family == "community":
        p_intra = float((params or {}).get("p_intra", 0.8))
        if p_intra >= 1.0:
            raise MutationError(
                "community with p_intra >= 1 has seed-dependent pair "
                "support (intra-community only); the search requires "
                "families whose support is seed-independent"
            )
    return FamilyInvariant(family, n, horizon)


def materialize_base(
    family: str,
    n: int,
    seed: int,
    horizon: int,
    sink: NodeId = 0,
    params: Optional[Mapping[str, Any]] = None,
) -> Schedule:
    """Materialize one family draw's committed future as a :class:`Schedule`.

    Derives the adversary exactly as the sweep runners do (same family
    factory, same seed semantics), commits ``horizon`` interactions and
    snapshots the dense index buffers.
    """
    from ..adversaries.factory import make_adversary

    nodes = list(range(n))
    adversary = make_adversary(
        family,
        nodes,
        seed,
        max_horizon=horizon,
        sink=sink,
        params=dict(params) if params else None,
    )
    i, j = adversary.committed_index_block(0, horizon)
    # Committed blocks are int32 views; schedules hold int64 copies.
    return Schedule(i=i.astype(np.int64), j=j.astype(np.int64), n=n)


# --------------------------------------------------------------------- #
# Pure, RNG-free application of concrete records
# --------------------------------------------------------------------- #
def _apply_swap(i: np.ndarray, j: np.ndarray, a: int, b: int) -> None:
    i[a], i[b] = i[b], i[a]
    j[a], j[b] = j[b], j[a]


def _apply_delay(i: np.ndarray, j: np.ndarray, a: int, b: int) -> None:
    # Move slot a to slot b (a < b), shifting (a, b] one step earlier.
    iv, jv = i[a], j[a]
    i[a:b] = i[a + 1 : b + 1]
    j[a:b] = j[a + 1 : b + 1]
    i[b], j[b] = iv, jv


def _apply_advance(i: np.ndarray, j: np.ndarray, a: int, b: int) -> None:
    # Move slot a to slot b (b < a), shifting [b, a) one step later.
    iv, jv = i[a], j[a]
    i[b + 1 : a + 1] = i[b:a]
    j[b + 1 : a + 1] = j[b:a]
    i[b], j[b] = iv, jv


def apply_mutation(schedule: Schedule, record: MutationRecord) -> Schedule:
    """Apply one concrete record to ``schedule`` — deterministic, RNG-free.

    This is the replay half of every operator: :func:`propose_mutation`
    decides *what* to do (consuming randomness), this function does it.
    Raises :class:`MutationError` on malformed records; it does **not**
    verify family invariants — callers that accept untrusted records go
    through :func:`mutate` or call :meth:`FamilyInvariant.verify` directly.
    """
    length = schedule.length
    i = schedule.i.copy()
    j = schedule.j.copy()
    params = record.params
    op = record.op

    def _pos(name: str) -> int:
        value = int(params[name])
        if not 0 <= value < length:
            raise MutationError(
                f"{op}: {name}={value} out of range [0, {length})"
            )
        return value

    if op == "swap":
        a, b = _pos("a"), _pos("b")
        if a == b:
            raise MutationError("swap: positions must differ")
        _apply_swap(i, j, a, b)
    elif op == "delay":
        a, b = _pos("a"), _pos("b")
        if not a < b:
            raise MutationError(f"delay: need a < b, got a={a}, b={b}")
        _apply_delay(i, j, a, b)
    elif op == "advance":
        a, b = _pos("a"), _pos("b")
        if not b < a:
            raise MutationError(f"advance: need b < a, got a={a}, b={b}")
        _apply_advance(i, j, a, b)
    elif op == "retarget":
        pos = _pos("pos")
        endpoint = str(params["endpoint"])
        value = int(params["value"])
        if endpoint not in ("i", "j"):
            raise MutationError(f"retarget: unknown endpoint {endpoint!r}")
        if not 0 <= value < schedule.n:
            raise MutationError(
                f"retarget: value={value} out of range [0, {schedule.n})"
            )
        other = int(j[pos]) if endpoint == "i" else int(i[pos])
        if value == other:
            raise MutationError("retarget: would create a self-interaction")
        if endpoint == "i":
            i[pos] = value
        else:
            j[pos] = value
    elif op == "splice":
        start = _pos("start")
        donor_i = np.asarray(params["donor_i"], dtype=np.int64)
        donor_j = np.asarray(params["donor_j"], dtype=np.int64)
        if donor_i.shape != donor_j.shape or donor_i.ndim != 1:
            raise MutationError("splice: malformed donor window")
        stop = start + int(donor_i.shape[0])
        if stop > length:
            raise MutationError(
                f"splice: window [{start}, {stop}) exceeds length {length}"
            )
        i[start:stop] = donor_i
        j[start:stop] = donor_j
    else:
        raise MutationError(f"unknown mutation operator {op!r}")
    return Schedule(i=i, j=j, n=schedule.n)


# --------------------------------------------------------------------- #
# Randomized proposals (score-feedback biased)
# --------------------------------------------------------------------- #
def _propose_swap(
    schedule: Schedule, rng: np.random.Generator, context: MutationContext
) -> MutationRecord:
    length = schedule.length
    a = int(rng.integers(0, length))
    b = int(rng.integers(0, length - 1))
    if b >= a:
        b += 1
    return MutationRecord("swap", {"a": min(a, b), "b": max(a, b)})


def _propose_delay(
    schedule: Schedule, rng: np.random.Generator, context: MutationContext
) -> MutationRecord:
    length = schedule.length
    limit = length if context.duration is None else min(int(context.duration), length)
    sink = context.sink_index
    involved = np.flatnonzero(
        (schedule.i[:limit] == sink) | (schedule.j[:limit] == sink)
    )
    # Bias: the completing meeting is one of the last sink-involving slots
    # before the parent's duration — delaying it stretches the run while the
    # early prefix (and hence the offline optimum) stays put.
    if involved.size:
        tail = involved[-_DELAY_TAIL:]
        a = int(tail[int(rng.integers(0, tail.size))])
    else:
        a = int(rng.integers(0, length - 1))
    if a >= length - 1:
        a = length - 2
    b = int(rng.integers(a + 1, length))
    return MutationRecord("delay", {"a": a, "b": b})


def _propose_advance(
    schedule: Schedule, rng: np.random.Generator, context: MutationContext
) -> MutationRecord:
    length = schedule.length
    window = min(ADVANCE_WINDOW, length - 1)
    b = int(rng.integers(0, max(window, 1)))
    a = int(rng.integers(b + 1, length))
    return MutationRecord("advance", {"a": a, "b": b})


def _propose_retarget(
    schedule: Schedule, rng: np.random.Generator, context: MutationContext
) -> MutationRecord:
    length = schedule.length
    if schedule.n < 3:
        raise MutationError("retarget needs at least 3 nodes")
    pos = int(rng.integers(0, length))
    endpoint = "i" if int(rng.integers(0, 2)) == 0 else "j"
    # Exclude both current endpoints so the proposal is never a no-op and
    # never creates a self-interaction.
    low, high = sorted((int(schedule.i[pos]), int(schedule.j[pos])))
    value = int(rng.integers(0, schedule.n - 2))
    if value >= low:
        value += 1
    if value >= high:
        value += 1
    return MutationRecord(
        "retarget", {"pos": pos, "endpoint": endpoint, "value": value}
    )


def _propose_splice(
    schedule: Schedule,
    rng: np.random.Generator,
    context: MutationContext,
    donor: Schedule,
) -> MutationRecord:
    length = schedule.length
    width = int(rng.integers(_SPLICE_MIN, _SPLICE_MAX + 1))
    width = min(width, length)
    start = int(rng.integers(0, length - width + 1))
    return MutationRecord(
        "splice",
        {
            "start": start,
            "donor_i": donor.i[start : start + width].tolist(),
            "donor_j": donor.j[start : start + width].tolist(),
        },
    )


def default_operator_weights() -> Dict[str, float]:
    """The search's default operator mix (delay-heavy; see module docstring)."""
    return {
        "delay": 0.55,
        "advance": 0.15,
        "swap": 0.10,
        "retarget": 0.10,
        "splice": 0.10,
    }


def propose_mutation(
    schedule: Schedule,
    rng: np.random.Generator,
    context: MutationContext,
    donor: Optional[Schedule] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> MutationRecord:
    """Draw one operator (by weight) and propose a concrete record for it.

    ``donor`` supplies the splice source; without one, splice weight is
    redistributed over the remaining operators.  The returned record is
    concrete — replaying it needs no RNG.
    """
    chosen = dict(weights) if weights is not None else default_operator_weights()
    unknown = set(chosen) - set(OPERATORS)
    if unknown:
        raise MutationError(f"unknown operators in weights: {sorted(unknown)}")
    if donor is None:
        chosen.pop("splice", None)
    names = [name for name in OPERATORS if chosen.get(name, 0.0) > 0.0]
    if not names:
        raise MutationError("no operators with positive weight")
    totals = np.cumsum([float(chosen[name]) for name in names])
    draw = float(rng.random()) * float(totals[-1])
    op = names[int(np.searchsorted(totals, draw, side="right").clip(0, len(names) - 1))]
    if op == "swap":
        return _propose_swap(schedule, rng, context)
    if op == "delay":
        return _propose_delay(schedule, rng, context)
    if op == "advance":
        return _propose_advance(schedule, rng, context)
    if op == "retarget":
        return _propose_retarget(schedule, rng, context)
    assert donor is not None
    return _propose_splice(schedule, rng, context, donor)


def mutate(
    schedule: Schedule,
    rng: np.random.Generator,
    context: MutationContext,
    invariant: FamilyInvariant,
    donor: Optional[Schedule] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> Tuple[Schedule, MutationRecord]:
    """Propose, apply and *verify* one mutation.

    The invariant verification is unconditional — the proof hook that no
    operator, however proposed, can emit an out-of-family schedule.
    """
    record = propose_mutation(schedule, rng, context, donor=donor, weights=weights)
    mutated = apply_mutation(schedule, record)
    invariant.verify(mutated)
    return mutated, record
