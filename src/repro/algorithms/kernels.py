"""Vectorized decision kernels: array-form twins of registered algorithms.

The trial-vectorized engine (:class:`~repro.core.vector_execution.
VectorizedExecutor`) does not call ``algorithm.decide`` once per
interaction.  Instead, each registered algorithm has a **decision kernel**
with one protocol:

* :meth:`DecisionKernel.prepare` builds the per-trial state (tables,
  parameters, RNG references);
* :meth:`DecisionKernel.decide_block` takes a block of candidates as dense
  index arrays ``(iu, iv)`` (canonically ordered, lower identifier rank
  first, unless the kernel is ``sparse``) and their interaction times
  ``t``, and returns a *direction* per candidate:

  * :data:`FIRST_RECEIVES` (0) — the ``iu`` node receives,
  * :data:`SECOND_RECEIVES` (1) — the ``iv`` node receives,
  * :data:`NO_TRANSMISSION` (-1) — the algorithm abstains,
  * :data:`PENDING` (-2) — decided later, by
    :meth:`DecisionKernel.resolve_one`;
* :meth:`DecisionKernel.resolve_one` decides one :data:`PENDING`
  candidate.  The engine's walk calls it only on candidates whose
  endpoints both own data at that point, in time order — the reference
  engine's ``decide`` call sites.  Kernels whose decisions read running
  state (a spanning tree's reported children, the randomized baselines'
  ``random.Random`` stream) defer to it, so they stay seed-for-seed equal
  to the object form.

A kernel validates its preconditions in :meth:`DecisionKernel.prepare` and
raises :class:`KernelUnsupported` when the trial's source or knowledge shape
is not one it can reproduce **exactly**; the engine then falls back to the
reference :class:`~repro.core.execution.Executor` for that trial and reports
the reason (see ``VectorizedExecutor.last_fallbacks``).  **Every registered
algorithm has a kernel** — :func:`get_kernel` raises on a miss — so a
fallback is an observable exception, never a routine code path.  Equality
with the object form is enforced by the differential tests in
``tests/test_vector_execution.py`` across every committed adversary family.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..adversaries.committed import COMMIT_CHUNK
from ..core.algorithm import DODAAlgorithm, KNOWLEDGE_MEET_TIME
from ..knowledge.base import KnowledgeBundle
from ..obs import current_collector

__all__ = [
    "NO_TRANSMISSION",
    "FIRST_RECEIVES",
    "SECOND_RECEIVES",
    "DecisionKernel",
    "KernelUnsupported",
    "KERNELS",
    "get_kernel",
    "register_kernel",
]

#: Direction codes returned by decision kernels.
NO_TRANSMISSION = -1
FIRST_RECEIVES = 0
SECOND_RECEIVES = 1
#: A kernel returns this for candidates it decides later: the engine calls
#: :meth:`DecisionKernel.resolve_one` when (and only when) such a candidate
#: turns out to be live at execution time, in time order.  Deferral keeps
#: oracle-backed kernels from scanning the future for interactions the
#: reference engine never queries, and lets stateful kernels consume their
#: state at exactly the reference engine's ``decide`` call sites.
PENDING = -2


class KernelUnsupported(Exception):
    """This kernel cannot exactly reproduce the trial; fall back.

    Raised by :meth:`DecisionKernel.prepare` when the interaction source or
    the knowledge bundle is not of a shape the kernel can mirror exactly
    (e.g. a ``meetTime`` oracle whose backing source is not the trial's
    committed adversary).  The vectorized engine treats it as a routing
    signal, never as an error.
    """


class DecisionKernel:
    """Base class for array-form decision kernels.

    Subclasses set ``algorithm_name`` (the registered algorithm they mirror)
    and implement :meth:`prepare` and :meth:`decide_block`, plus
    :meth:`resolve_one` when ``decide_block`` returns :data:`PENDING`.
    """

    algorithm_name: str = "abstract"
    #: Sparse kernels have a rare non-abstain set and an ownership-free,
    #: order-insensitive pure decision (e.g. Waiting's sink-only rule).
    #: The engine then runs ``decide_block`` on the raw draw order over the
    #: whole block — direction 0 names the ``iu`` argument positionally —
    #: and skips the block-level ownership mask entirely, leaving the
    #: ownership guard to the walk's scalar re-check.
    sparse: bool = False

    def prepare(
        self,
        algorithm: DODAAlgorithm,
        source: Any,
        knowledge: Any,
        index_of: Dict[Any, int],
        sink_node: Any,
    ) -> Any:
        """Build the per-trial kernel state (tables, parameters, RNG refs).

        ``index_of`` is the executor's node -> dense-index map (insertion
        order is the dense order, which the trial's source shares); it
        gives ``n`` and the sink's index, and plan-building kernels express
        node identifiers in array form through it.

        Raises:
            KernelUnsupported: when the trial cannot be reproduced exactly.
        """
        raise NotImplementedError

    def decide_block(
        self, state: Any, iu: np.ndarray, iv: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Directions for a block of candidates.

        ``iu``/``iv`` are dense node indices in canonical order (``iu`` has
        the lower identifier rank; raw draw order for ``sparse`` kernels);
        ``t`` the interaction times.  Must be a pure function of its inputs
        and ``state``'s precomputed tables; anything that depends on
        running state is returned :data:`PENDING`.  A ``sparse`` kernel
        gets the block as read, in the source's dtype (read-only int32
        views of a committed adversary's buffers), and widens it to intp
        before indexing with it.  The others get intp arrays of their own.
        """
        raise NotImplementedError

    def resolve_one(self, state: Any, iu: int, iv: int, t: int) -> int:
        """Decide one :data:`PENDING` candidate.

        Called on exactly the candidates whose endpoints both own data at
        execution time, in time order — the same call sites, in the same
        order, as the object algorithm's ``decide`` under the reference
        engine, so stateful kernels (RNG streams) stay seed-for-seed equal.
        """
        raise NotImplementedError


#: algorithm name -> kernel instance.
KERNELS: Dict[str, DecisionKernel] = {}


def register_kernel(kernel_cls: type) -> type:
    """Register a kernel class under its ``algorithm_name`` (decorator)."""
    kernel = kernel_cls()
    KERNELS[kernel.algorithm_name] = kernel
    return kernel_cls


def get_kernel(algorithm_name: str) -> DecisionKernel:
    """The decision kernel mirroring ``algorithm_name``.

    Every registered algorithm ships a kernel, so a miss here is a
    programming error (an algorithm registered without its kernel, or a
    typo), not a routing signal.

    Raises:
        KeyError: naming the algorithm and listing the registered kernels.
    """
    try:
        return KERNELS[algorithm_name]
    except KeyError:
        registered = ", ".join(sorted(KERNELS))
        raise KeyError(
            f"no decision kernel is registered for algorithm "
            f"{algorithm_name!r}; registered kernels: {registered}"
        ) from None


# --------------------------------------------------------------------- #
# Oblivious knowledge-free kernels
# --------------------------------------------------------------------- #
class _SinkState:
    """Shared state shape for the knowledge-free kernels."""

    __slots__ = ("sink_index",)

    def __init__(self, sink_index: int) -> None:
        self.sink_index = sink_index


@register_kernel
class GatheringKernel(DecisionKernel):
    """Array form of :class:`~repro.algorithms.gathering.Gathering`."""

    algorithm_name = "gathering"

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        return _SinkState(index_of[sink_node])

    def decide_block(self, state, iu, iv, t):
        # Receiver defaults to the first (lower-identifier) node; the sink
        # receives whenever it is part of the interaction.
        dirs = np.full(iu.shape[0], FIRST_RECEIVES, dtype=np.int8)
        dirs[iv == state.sink_index] = SECOND_RECEIVES
        return dirs


@register_kernel
class WaitingKernel(DecisionKernel):
    """Array form of :class:`~repro.algorithms.waiting.Waiting`.

    Declared ``sparse``: only the ~2/n sink-involving interactions can ever
    transmit and the rule is ownership-free and order-insensitive (the
    receiver is the sink, whichever side it is on), so the engine feeds the
    raw draw order and skips the block-level ownership mask.
    """

    algorithm_name = "waiting"
    sparse = True

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        return _SinkState(index_of[sink_node])

    def decide_block(self, state, iu, iv, t):
        dirs = np.full(iu.shape[0], NO_TRANSMISSION, dtype=np.int8)
        dirs[iu == state.sink_index] = FIRST_RECEIVES
        dirs[iv == state.sink_index] = SECOND_RECEIVES
        return dirs


# --------------------------------------------------------------------- #
# meetTime-based kernel (Waiting Greedy)
# --------------------------------------------------------------------- #
class SinkMeetTable:
    """Lazily extended next-sink-meeting lookup over a committed future.

    Mirrors :class:`~repro.knowledge.meet_time.MeetTimeKnowledge` backed by
    a committed-block adversary with ``strict=False``: a *known*
    :meth:`lookup` answer is, per ``(node, t)`` pair, the smallest committed
    meeting time with the sink strictly greater than ``t``, or
    ``horizon + 1`` when there is none at or below ``horizon`` (the
    oracle's "never within the horizon" sentinel).  The committed future is
    scanned in growing rounds of at least one ``gap``, then ×1.5, only as
    far as the decisions actually require.

    The table reads the trial's adversary once, in the first round at
    construction: the committed prefix of at least ``prefix`` interactions,
    rounded up to the adversary's chunk-aligned frontier, which the run
    consumes anyway.  Everything past the frontier comes from the
    adversary's :meth:`~repro.adversaries.committed.CommittedBlockAdversary.
    lookahead` copy, one :data:`~repro.adversaries.committed.COMMIT_CHUNK`
    piece at a time, released once scanned.  The lookahead draws the
    committed future itself, so the table answers as if it had read the
    adversary; but the scan-ahead is never stored, and the run may release
    the adversary's past at its own cursor.  When tracing, each
    round emits the interactions it scanned as the
    ``kernels.meet_table_scanned`` counter.

    All indices are the adversary's dense node indices: the engine runs a
    kernel only on an adversary in the executor's node order.
    """

    def __init__(
        self,
        adversary: Any,
        sink_index: int,
        horizon: int,
        gap: int = 4096,
        prefix: int = 0,
    ) -> None:
        self._sink = sink_index
        self._horizon = horizon
        # Expected committed distance between two meetings of a fixed pair;
        # the scan extends by at least this much per resolution round so the
        # amortised cost per unresolved query stays O(1).
        self._gap = max(4096, int(gap))
        self._covered = 0  # committed prefix scanned so far
        self._complete = False  # no meetings can exist beyond _covered
        self._partners: List[np.ndarray] = []
        self._times: List[np.ndarray] = []
        # Flat (node, time) meeting list sorted by node then time, encoded
        # as keys node * stride + time for one-searchsorted-per-block
        # lookups.
        self._stride = horizon + 2
        self._keys = np.empty(0, dtype=np.int64)
        self._flat_nodes = np.empty(0, dtype=np.int64)
        self._flat_times = np.empty(0, dtype=np.int64)
        # Plain-list copies for the scalar lookup path (python bisect beats
        # numpy searchsorted by an order of magnitude on single keys).
        self._keys_list: List[int] = []
        self._flat_times_list: List[int] = []
        adversary.ensure_committed(min(prefix, horizon + 1))
        self._lookahead = adversary.lookahead()
        self._extend(max(self._gap, prefix), head=adversary)

    # ------------------------------------------------------------------ #
    def _extend(self, target: int, head: Any = None) -> None:
        """Scan the committed future up to ``target`` interactions.

        ``head`` is the trial's adversary, passed by the first round only:
        its whole committed prefix, where the lookahead starts, is scanned
        before the lookahead takes over.
        """
        bound = self._horizon + 1
        target = min(target, bound)
        if self._complete or target <= self._covered:
            return
        start, recorded = self._covered, len(self._times)
        if head is not None:
            self._scan(*head.committed_index_block(
                0, min(head.committed_length, bound)
            ))
        lookahead = self._lookahead
        while self._covered < target:
            stop = min(self._covered + COMMIT_CHUNK, target)
            self._scan(*lookahead.committed_index_block(self._covered, stop))
            lookahead.release_before(self._covered)
            if self._covered < stop:
                # Short piece: the committed future is exhausted (finite
                # trace or max_horizon cap).
                self._complete = True
                break
        if self._covered >= bound:
            # The scan reached the sentinel bound.
            self._complete = True
        if len(self._times) > recorded:
            partners = np.concatenate(self._partners)
            times = np.concatenate(self._times)
            order = np.argsort(partners, kind="stable")
            self._flat_nodes = partners[order]
            self._flat_times = times[order]
            self._keys = self._flat_nodes * self._stride + self._flat_times
            self._keys_list = self._keys.tolist()
            self._flat_times_list = self._flat_times.tolist()
        collector = current_collector()
        if collector.enabled:
            collector.counter("kernels.meet_table_scanned", self._covered - start)

    def _scan(self, i: np.ndarray, j: np.ndarray) -> None:
        """Record the sink meetings of the next ``len(i)`` committed pairs."""
        count = i.shape[0]
        hit = (i == self._sink) | (j == self._sink)
        if hit.any():
            offsets = np.nonzero(hit)[0]
            # int64 before the keys are formed: node * stride overflows
            # int32, the committed buffers' dtype, once it passes 2**31.
            partners = i[offsets].astype(np.int64) + j[offsets]
            self._partners.append(partners - self._sink)
            self._times.append(offsets + self._covered)
        self._covered += count

    def extend_round(self) -> bool:
        """One more scan round (at least one expected inter-meeting gap).

        Returns False when the scan cannot make further progress (the
        committed future is exhausted or the sentinel bound was reached).
        """
        if self._complete:
            return False
        self._extend(max(self._covered + self._gap, self._covered * 3 // 2))
        return True

    @property
    def covered(self) -> int:
        """How much of the committed future the scan has consumed."""
        return self._covered

    def lookup(self, nodes: np.ndarray, t: np.ndarray):
        """Per pair ``(node, t)``: next sink meeting, if currently decidable.

        Returns ``(values, known)``: where ``known`` is True the value is
        final — either the exact next meeting time (a found meeting inside
        the scanned prefix is always the global next one) or the
        ``horizon + 1`` sentinel (the scan is complete and found nothing).
        Where ``known`` is False, all that is certain is that the node's
        next sink meeting is strictly beyond the scanned prefix
        (``> covered - 1``).  Nodes equal to the sink get the identity
        ``meetTime`` (``t``), always known.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        count = nodes.shape[0]
        values = np.full(count, self._horizon + 1, dtype=np.int64)
        sink_rows = nodes == self._sink
        if self._keys.shape[0]:
            keys = nodes * self._stride + t
            idx = np.searchsorted(self._keys, keys, side="right")
            found = idx < self._keys.shape[0]
            safe = np.where(found, idx, 0)
            found &= self._flat_nodes[safe] == nodes
            values[found] = self._flat_times[safe[found]]
        else:
            found = np.zeros(count, dtype=bool)
        known = found | self._complete | sink_rows
        if sink_rows.any():
            values[sink_rows] = t[sink_rows]
        return values, known

    def lookup_one(self, node: int, t: int) -> Tuple[int, bool]:
        """Scalar :meth:`lookup` for walk-time late resolution."""
        if node == self._sink:
            return t, True
        key = node * self._stride + t
        keys = self._keys_list
        idx = bisect_right(keys, key)
        if idx < len(keys) and keys[idx] < (node + 1) * self._stride:
            return self._flat_times_list[idx], True
        return self._horizon + 1, self._complete


class _WaitingGreedyState:
    __slots__ = ("tau", "table")

    def __init__(self, tau: int, table: SinkMeetTable) -> None:
        self.tau = tau
        self.table = table


@register_kernel
class WaitingGreedyKernel(DecisionKernel):
    """Array form of :class:`~repro.algorithms.waiting_greedy.WaitingGreedy`.

    Supported exactly when the trial's ``meetTime`` oracle is a
    non-strict :class:`~repro.knowledge.meet_time.MeetTimeKnowledge` backed
    by the trial's own committed-block source — the shape every sim-layer
    runner builds — so the kernel's precomputed meeting tables are provably
    the same function the object algorithm would query.
    """

    algorithm_name = "waiting_greedy"

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        from ..knowledge.meet_time import MeetTimeKnowledge

        oracle = _bundle_oracle(knowledge, KNOWLEDGE_MEET_TIME)
        if not isinstance(oracle, MeetTimeKnowledge):
            raise KernelUnsupported("no meetTime oracle to mirror")
        if oracle.strict or oracle.horizon is None:
            raise KernelUnsupported("strict/unbounded meetTime oracle")
        if oracle.source is not source:
            raise KernelUnsupported("meetTime oracle not backed by the source")
        if oracle.sink != sink_node:
            # An oracle answering about a *different* sink cannot be
            # mirrored by the executor-sink meeting tables.
            raise KernelUnsupported("meetTime oracle queries a different sink")
        if not hasattr(source, "lookahead"):
            raise KernelUnsupported("source is not a committed-block adversary")
        tau = int(algorithm.tau)
        n = len(index_of)
        # Meetings at or below tau must be exact for the abstain decision,
        # so the table's first round scans out to tau + 1.
        table = SinkMeetTable(
            source,
            index_of[sink_node],
            oracle.horizon,
            gap=n * (n - 1) // 2,
            prefix=tau + 1,
        )
        return _WaitingGreedyState(tau, table)

    def decide_block(self, state, iu, iv, t):
        table = state.table
        tau = state.tau
        # The table covers tau + 1 since prepare, so every *unknown* meet
        # time is > covered >= tau + 1, i.e. automatically both beyond tau
        # and beyond any known (in-prefix) partner value: with one side
        # known the comparison and the tau threshold are both decided.
        # Pairs whose meet times are BOTH unknown are returned as PENDING
        # and resolved lazily (:meth:`resolve_one`) only if they are still
        # live when the engine's walk reaches them — this keeps the scan
        # depth bounded by the meetings the *realized* run actually
        # compares, never by stale candidates the reference engine would
        # not have queried either.
        m1, k1 = table.lookup(iu, t)
        m2, k2 = table.lookup(iv, t)
        dirs = np.full(iu.shape[0], PENDING, dtype=np.int8)
        both = k1 & k2
        # The object form abstains exactly when max(m1, m2) <= tau;
        # otherwise the side with the later sink meeting transmits
        # (ties go to the first node, which also covers the sink itself).
        dirs[both & (m1 <= tau) & (m2 <= tau)] = NO_TRANSMISSION
        dirs[both & (m1 <= m2) & (tau < m2)] = FIRST_RECEIVES
        dirs[both & (m1 > m2) & (tau < m1)] = SECOND_RECEIVES
        dirs[k1 & ~k2] = FIRST_RECEIVES
        dirs[~k1 & k2] = SECOND_RECEIVES
        return dirs

    def resolve_one(self, state, iu, iv, t):
        table = state.table
        tau = state.tau
        while True:
            m1, k1 = table.lookup_one(iu, t)
            m2, k2 = table.lookup_one(iv, t)
            if k1 and k2:
                if m1 <= m2:
                    return FIRST_RECEIVES if tau < m2 else NO_TRANSMISSION
                return SECOND_RECEIVES if tau < m1 else NO_TRANSMISSION
            if k1:
                return FIRST_RECEIVES
            if k2:
                return SECOND_RECEIVES
            table.extend_round()


# --------------------------------------------------------------------- #
# Stateful kernels: the randomized oblivious baselines
# --------------------------------------------------------------------- #
class _RngState:
    __slots__ = ("sink_index", "random", "p")

    def __init__(self, sink_index: int, random: Callable[[], float], p: float = 0.0) -> None:
        self.sink_index = sink_index
        self.random = random
        self.p = p


class _RngKernel(DecisionKernel):
    """A randomized baseline: every decision draws from the instance's stream.

    The kernel shares the algorithm instance's ``random.Random`` stream and
    defers every candidate, so it draws only at the reference engine's
    ``decide`` call sites (both endpoints owning data, time order) and the
    run is identical to the object form's, seed for seed.
    """

    def decide_block(self, state, iu, iv, t):
        return np.full(iu.shape[0], PENDING, dtype=np.int8)


@register_kernel
class CoinFlipGatheringKernel(_RngKernel):
    """Twin of :class:`~repro.algorithms.random_baseline.CoinFlipGathering`."""

    algorithm_name = "coin_flip_gathering"

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        return _RngState(index_of[sink_node], algorithm._rng.random, p=algorithm.p)

    def resolve_one(self, state, iu, iv, t):
        if state.random() >= state.p:
            return NO_TRANSMISSION
        if iu == state.sink_index:
            return FIRST_RECEIVES
        if iv == state.sink_index:
            return SECOND_RECEIVES
        return FIRST_RECEIVES


@register_kernel
class RandomReceiverKernel(_RngKernel):
    """Twin of :class:`~repro.algorithms.random_baseline.RandomReceiver`."""

    algorithm_name = "random_receiver"

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        return _RngState(index_of[sink_node], algorithm._rng.random)

    def resolve_one(self, state, iu, iv, t):
        if state.random() < 0.5:
            # First receives, second sends — unless the sender is the sink.
            return NO_TRANSMISSION if iv == state.sink_index else FIRST_RECEIVES
        return NO_TRANSMISSION if iu == state.sink_index else SECOND_RECEIVES


# --------------------------------------------------------------------- #
# Plan-lookup kernels: the knowledge-heavy algorithms
# --------------------------------------------------------------------- #
class _PlanState:
    """A materialised ``time -> (sender, receiver)`` plan in array form.

    ``times`` is sorted and unique (a plan is a dict keyed by time);
    ``senders``/``receivers`` hold executor-dense indices aligned with it.
    Plan nodes outside the executor's node set are encoded as ``-2``, which
    never equals a dense index — such entries simply never fire, exactly
    like the object form's pair-match test failing for every view pair.
    """

    __slots__ = ("times", "senders", "receivers")

    def __init__(
        self, times: np.ndarray, senders: np.ndarray, receivers: np.ndarray
    ) -> None:
        self.times = times
        self.senders = senders
        self.receivers = receivers


def _empty_plan_state() -> _PlanState:
    """A plan with no entries: the kernel never transmits."""
    empty = np.empty(0, dtype=np.int64)
    return _PlanState(empty, empty.copy(), empty.copy())


def _plan_state(plan: Dict[int, Tuple[Any, Any]], index_of: Dict[Any, int]) -> _PlanState:
    """Densify a ``time -> (sender, receiver)`` plan into a :class:`_PlanState`."""
    count = len(plan)
    times = np.fromiter(sorted(plan), dtype=np.int64, count=count)
    senders = np.fromiter(
        (index_of.get(plan[int(t)][0], -2) for t in times), dtype=np.int64, count=count
    )
    receivers = np.fromiter(
        (index_of.get(plan[int(t)][1], -2) for t in times), dtype=np.int64, count=count
    )
    return _PlanState(times, senders, receivers)


def _plan_decide_block(
    state: _PlanState, iu: np.ndarray, iv: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Directions for a raw-order block against a materialised plan.

    Pure and order-insensitive: an interaction transmits iff the plan names
    exactly its pair at exactly its time, with the direction given by the
    plan's receiver — the array form of the object algorithms'
    ``plan.get(time)`` + pair-match test.  Ownership is left to the walk's
    scalar re-check (the kernels are ``sparse``), mirroring the reference
    engine's guard that never calls ``decide`` unless both endpoints own
    data.
    """
    dirs = np.full(iu.shape[0], NO_TRANSMISSION, dtype=np.int8)
    if not state.times.shape[0]:
        return dirs
    idx = np.searchsorted(state.times, t)
    found = idx < state.times.shape[0]
    safe = np.where(found, idx, 0)
    found &= state.times[safe] == t
    senders = state.senders[safe]
    receivers = state.receivers[safe]
    dirs[found & (senders == iv) & (receivers == iu)] = FIRST_RECEIVES
    dirs[found & (senders == iu) & (receivers == iv)] = SECOND_RECEIVES
    return dirs


def _bundle_oracle(knowledge: Any, name: str) -> Any:
    """The oracle the knowledge bundle grants under ``name``, or None.

    Only a :class:`~repro.knowledge.base.KnowledgeBundle` names the oracle
    behind its answers; any other knowledge object gets None, so its trial
    runs on the reference engine.
    """
    if isinstance(knowledge, KnowledgeBundle) and knowledge.has(name):
        return knowledge.oracle(name)
    return None


@register_kernel
class FullKnowledgeKernel(DecisionKernel):
    """Array form of :class:`~repro.algorithms.full_knowledge.FullKnowledge`.

    The object algorithm's decisions are a pure function of the optimal
    convergecast plan computed from its oracle's committed sequence plus a
    pair-match against the realized interaction, so the kernel needs no
    source-identity precondition: it materialises the same plan (via the
    shared :func:`~repro.algorithms.full_knowledge.convergecast_plan`
    builder) and decides by array lookup.  ``sparse`` because at most
    ``n - 1`` plan entries exist over the whole horizon.
    """

    algorithm_name = "full_knowledge"
    sparse = True

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        from .full_knowledge import convergecast_plan

        oracle = _bundle_oracle(knowledge, "full_knowledge")
        if oracle is None or not hasattr(oracle, "full_sequence"):
            raise KernelUnsupported("no full-knowledge oracle to mirror")
        plan = convergecast_plan(
            oracle.full_sequence(), list(index_of), sink_node, start=0
        )
        if plan is None:
            # No convergecast fits: the object form never transmits either.
            return _empty_plan_state()
        return _plan_state(plan, index_of)

    def decide_block(self, state, iu, iv, t):
        return _plan_decide_block(state, iu, iv, t)


@register_kernel
class FutureBroadcastKernel(DecisionKernel):
    """Array form of :class:`~repro.algorithms.future_broadcast.FutureBroadcast`.

    Supported exactly when the trial's ``future`` oracle is backed by the
    very sequence the trial executes: then no node transmits before the
    canonical gossip completion time ``T_bcast`` (the convergecast plan
    starts strictly after it), so every node still owns data throughout the
    gossip phase, the realized table merges equal the unconditional gossip
    simulation, and every decision from ``T_bcast + 1`` on reduces to the
    same plan lookup the object form performs — which the kernel
    materialises once per trial via the shared
    :func:`~repro.algorithms.future_broadcast.broadcast_then_convergecast_plan`.
    (The object reconstructs the sequence from gossiped futures rather than
    reading it whole; reconstruction can orient pairs differently, but both
    the gossip simulation and the convergecast builder are
    orientation-insensitive, so the plans coincide.)
    """

    algorithm_name = "future_broadcast"
    sparse = True

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        from ..knowledge.future import FutureKnowledge
        from .future_broadcast import broadcast_then_convergecast_plan

        oracle = _bundle_oracle(knowledge, "future")
        if not isinstance(oracle, FutureKnowledge):
            raise KernelUnsupported("no future oracle to mirror")
        if oracle.sequence is not source:
            # Gossip dynamics depend on the interactions that actually
            # occur; only an oracle backed by the trial's own sequence is
            # provably mirrored by the offline simulation.
            raise KernelUnsupported(
                "future oracle is not backed by the trial's own sequence"
            )
        _, plan = broadcast_then_convergecast_plan(
            oracle.sequence, list(index_of), sink_node
        )
        if plan is None:
            # Gossip never completes (or no convergecast fits after it):
            # the object form never transmits either.
            return _empty_plan_state()
        return _plan_state(plan, index_of)

    def decide_block(self, state, iu, iv, t):
        return _plan_decide_block(state, iu, iv, t)


class _TreeState:
    """Per-trial spanning-tree bookkeeping in dense-index form.

    ``parent``/``parent_list`` are the tree in array and list form (``-1``
    for the root and unreachable nodes); ``needed[i]`` counts node ``i``'s
    tree children and ``received[i]`` how many have reported in.  Because
    ownership is monotone a child transmits at most once, so the counter is
    equivalent to the object form's received-children *set*.
    """

    __slots__ = ("parent", "parent_list", "needed", "received")

    def __init__(self, parent: List[int], needed: List[int]) -> None:
        self.parent = np.asarray(parent, dtype=np.int64)
        self.parent_list = list(parent)
        self.needed = list(needed)
        self.received = [0] * len(parent)


@register_kernel
class SpanningTreeKernel(DecisionKernel):
    """Array form of :class:`~repro.algorithms.spanning_tree.SpanningTreeAggregation`.

    The BFS tree of G-bar is deterministic, so the candidate set is exactly
    the tree edges — ``sparse``, since a tree has ``n - 1`` edges out of
    ~``n²/2`` possible pairs.  Whether a child may transmit depends on how
    many of its children have already reported, which is running state, so
    tree-edge candidates are returned :data:`PENDING` and resolved scalar-
    side in time order on live candidates only — the exact call sites where
    the reference engine queries the object algorithm.  Tree antisymmetry
    (``parent[u] == v`` and ``parent[v] == u`` cannot both hold) makes the
    raw-order branch test safe.  A G-bar stored as the complete graph on
    the executor's nodes needs no BFS: its tree is the sink's star.
    """

    algorithm_name = "spanning_tree"
    sparse = True

    def prepare(self, algorithm, source, knowledge, index_of, sink_node):
        from .spanning_tree import dense_bfs_tree

        oracle = _bundle_oracle(knowledge, "underlying_graph")
        if oracle is None or not hasattr(oracle, "underlying_graph"):
            raise KernelUnsupported("no underlying-graph oracle to mirror")
        if getattr(oracle, "complete_nodes", None) == frozenset(index_of):
            # G-bar is the complete graph on the executor's nodes: the BFS
            # tree is the sink's star (every other node is its neighbour).
            n, sink_index = len(index_of), index_of[sink_node]
            parent = [sink_index] * n
            parent[sink_index] = -1
            needed = [0] * n
            needed[sink_index] = n - 1
            return _TreeState(parent, needed)
        graph = oracle.underlying_graph()
        if sink_node not in graph:
            # The object form would crash computing the BFS tree; the
            # fallback engine reproduces that behaviour faithfully.
            raise KernelUnsupported("sink is not a node of the underlying graph")
        parent, needed = dense_bfs_tree(graph, sink_node, index_of)
        return _TreeState(parent, needed)

    def decide_block(self, state, iu, iv, t):
        # Widen once: numpy casts a non-intp index array on every use.
        iu = iu.astype(np.intp, copy=False)
        iv = iv.astype(np.intp, copy=False)
        parent = state.parent
        dirs = np.full(iu.shape[0], NO_TRANSMISSION, dtype=np.int8)
        dirs[(parent[iu] == iv) | (parent[iv] == iu)] = PENDING
        return dirs

    def resolve_one(self, state, iu, iv, t):
        if state.parent_list[iu] == iv:
            child, parent, direction = iu, iv, SECOND_RECEIVES
        else:
            child, parent, direction = iv, iu, FIRST_RECEIVES
        if state.received[child] == state.needed[child]:
            state.received[parent] += 1
            return direction
        return NO_TRANSMISSION
