"""Future-broadcast algorithm: nodes know their own future (Section 3.3).

Theorem 6: when every node knows its own future interactions, a distributed
online algorithm achieves cost at most ``n``.  The proof broadcasts every
node's future (which fits within the duration of ``n-1`` successive
convergecasts) and then runs one optimal convergecast.

The implementation follows the proof's structure while keeping decisions
consistent across nodes:

1. *Gossip phase* — at every interaction the two nodes merge their tables of
   known futures (control information only, no data transmission).
2. Once a node's table covers the whole node set, it can reconstruct the
   entire sequence, re-simulate the gossip deterministically, and obtain the
   canonical time ``T_bcast`` at which the *last* node becomes fully
   informed.  All fully-informed nodes therefore agree on ``T_bcast``.
3. *Convergecast phase* — after ``T_bcast`` every node follows the canonical
   optimal convergecast schedule computed for the suffix starting at
   ``T_bcast + 1``.  No data was transmitted before that point, so the
   schedule's assumptions hold exactly.

Under the randomized adversary the same algorithm terminates in Θ(n log n)
interactions with high probability (Corollary 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.algorithm import DODAAlgorithm, KNOWLEDGE_FUTURE, registry
from ..core.data import NodeId
from ..core.interaction import InteractionSequence
from ..core.node import NodeView
from .full_knowledge import ConvergecastPlan, convergecast_plan, dense_pairs

_TABLE_KEY = "future_broadcast/known_futures"


def broadcast_then_convergecast_plan(
    sequence: InteractionSequence, nodes: List[NodeId], sink: NodeId
) -> Tuple[Optional[int], Optional[ConvergecastPlan]]:
    """``(T_bcast, plan)`` for the canonical future-broadcast strategy.

    ``T_bcast`` is the time at which the deterministic gossip makes the last
    node fully informed; the plan is the optimal convergecast over the
    suffix starting at ``T_bcast + 1``.  Returns ``(None, None)`` when the
    gossip never completes within the sequence or no convergecast fits in
    the remaining suffix — the algorithm then never transmits.  Shared by
    :class:`FutureBroadcast` and its decision kernel so both follow the
    same plan by construction.
    """
    complete_time = gossip_completion_time(sequence, nodes)
    if complete_time is None:
        return None, None
    plan = convergecast_plan(sequence, nodes, sink, start=complete_time + 1)
    if plan is None:
        return None, None
    return complete_time, plan


@registry.register
class FutureBroadcast(DODAAlgorithm):
    """Gossip futures, then follow the canonical optimal convergecast."""

    name = "future_broadcast"
    oblivious = False
    requires = frozenset({KNOWLEDGE_FUTURE})

    def __init__(self) -> None:
        self._nodes: Tuple[NodeId, ...] = ()
        self._sink: Optional[NodeId] = None
        self._plan: Optional[Dict[int, Tuple[NodeId, NodeId]]] = None
        self._broadcast_complete_time: Optional[int] = None
        self._plan_impossible = False

    def on_run_start(self, nodes: Iterable[NodeId], sink: NodeId) -> None:
        """Reset cached state for a new run."""
        self._nodes = tuple(nodes)
        self._sink = sink
        self._plan = None
        self._broadcast_complete_time = None
        self._plan_impossible = False

    # ------------------------------------------------------------------ #
    def decide(
        self, first: NodeView, second: NodeView, time: int
    ) -> Optional[NodeId]:
        merged = self._gossip(first, second)
        if len(merged) < len(self._nodes):
            return None
        self._ensure_plan(merged)
        if self._plan is None or self._broadcast_complete_time is None:
            return None
        if time <= self._broadcast_complete_time:
            return None
        planned = self._plan.get(time)
        if planned is None:
            return None
        sender, receiver = planned
        if {sender, receiver} != {first.id, second.id}:
            return None
        return receiver

    # ------------------------------------------------------------------ #
    def _gossip(
        self, first: NodeView, second: NodeView
    ) -> Dict[NodeId, Tuple[Tuple[int, NodeId], ...]]:
        """Merge the two nodes' tables of known futures and store the union."""
        table_first = first.memory.get(_TABLE_KEY, {})
        table_second = second.memory.get(_TABLE_KEY, {})
        merged: Dict[NodeId, Tuple[Tuple[int, NodeId], ...]] = {}
        merged.update(table_first)
        merged.update(table_second)
        merged.setdefault(first.id, tuple(first.future()))
        merged.setdefault(second.id, tuple(second.future()))
        first.memory[_TABLE_KEY] = merged
        second.memory[_TABLE_KEY] = merged
        return merged

    def _ensure_plan(
        self, futures: Dict[NodeId, Tuple[Tuple[int, NodeId], ...]]
    ) -> None:
        """Reconstruct the sequence, locate ``T_bcast``, compute the schedule."""
        if self._plan is not None or self._plan_impossible:
            return
        sequence = reconstruct_sequence(futures)
        complete_time, plan = broadcast_then_convergecast_plan(
            sequence, list(self._nodes), self._sink
        )
        if plan is None:
            self._plan_impossible = True
            return
        self._broadcast_complete_time = complete_time
        self._plan = plan


def reconstruct_sequence(
    futures: Dict[NodeId, Tuple[Tuple[int, NodeId], ...]]
) -> InteractionSequence:
    """Rebuild the full interaction sequence from per-node futures.

    Every interaction ``{u, v}`` at time ``t`` appears both in ``u``'s and in
    ``v``'s future, so the union of all futures, indexed by time, is the full
    sequence.  Missing time slots (possible only if the futures are partial)
    are filled by repeating the previous pair, which never happens when the
    table covers all nodes.
    """
    by_time: Dict[int, Tuple[NodeId, NodeId]] = {}
    for node, events in futures.items():
        for time, peer in events:
            by_time[time] = (node, peer)
    if not by_time:
        return InteractionSequence.empty()
    horizon = max(by_time) + 1
    pairs: List[Tuple[NodeId, NodeId]] = []
    previous: Optional[Tuple[NodeId, NodeId]] = None
    for time in range(horizon):
        pair = by_time.get(time, previous)
        if pair is None:
            # Cannot happen with complete futures; keep the sequence aligned
            # by inserting the first known pair.
            pair = next(iter(by_time.values()))
        pairs.append(pair)
        previous = pair
    return InteractionSequence.from_pairs(pairs)


def gossip_completion_time(
    sequence: InteractionSequence, nodes: List[NodeId]
) -> Optional[int]:
    """Time at which gossip makes every node know every node's future.

    Simulates the deterministic gossip process (each interaction merges the
    two endpoint tables) and returns the time of the interaction after which
    all nodes know all futures, or None if that never happens within the
    sequence.  Each table is one Python-int bitset over the dense node
    positions, and a running count of fully informed nodes replaces a scan
    of every table per step.

    Raises:
        KeyError: if the gossip reaches an interaction with a node outside
            ``nodes`` before it completes.
    """
    size = len(dict.fromkeys(nodes))
    if size <= 1:
        return -1
    order, first, second = dense_pairs(sequence, nodes)
    full = (1 << size) - 1
    known = [1 << position for position in range(size)]
    informed = 0
    for time, (u, v) in enumerate(zip(first, second)):
        if u >= size or v >= size:
            raise KeyError(order[max(u, v)])
        union = known[u] | known[v]
        if union == full:
            informed += (known[u] != full) + (known[v] != full)
            if informed == size:
                return time
        known[u] = known[v] = union
    return None
