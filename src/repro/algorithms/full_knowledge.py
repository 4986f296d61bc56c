"""Full-knowledge algorithm: follow the optimal offline convergecast.

When every node knows the entire sequence of interactions, the best possible
behaviour is simply to compute the optimal offline convergecast schedule and
execute it.  Under the randomized adversary this terminates in Θ(n log n)
interactions in expectation and with high probability (Theorem 8), which is
the baseline every other bound in Section 4 is converted against.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.algorithm import DODAAlgorithm, KNOWLEDGE_FULL, registry
from ..core.data import NodeId
from ..core.interaction import InteractionSequence
from ..core.node import NodeView
from ..ratio.kernels import foremost_arrivals

#: ``time -> (sender, receiver)``: the materialised convergecast plan both
#: the object algorithm and its decision kernel follow.
ConvergecastPlan = Dict[int, Tuple[NodeId, NodeId]]


def dense_pairs(
    sequence: InteractionSequence, nodes: Iterable[NodeId]
) -> Tuple[List[NodeId], List[int], List[int]]:
    """``(order, i, j)``: the sequence's pairs as positions in ``order``.

    ``order`` lists the distinct ``nodes`` first, in their order, then any
    node the sequence mentions outside them.  The pairs are unordered (see
    :meth:`~repro.core.interaction.InteractionSequence.index_arrays`); the
    plan builders read them symmetrically.
    """
    index_of = {node: position for position, node in enumerate(dict.fromkeys(nodes))}
    try:
        i, j = sequence.index_arrays(index_of)
    except KeyError:
        for node in sorted(sequence.nodes(), key=repr):
            index_of.setdefault(node, len(index_of))
        i, j = sequence.index_arrays(index_of)
    return list(index_of), i.tolist(), j.tolist()


def convergecast_plan(
    sequence: InteractionSequence,
    nodes: Sequence[NodeId],
    sink: NodeId,
    start: int = 0,
) -> Optional[ConvergecastPlan]:
    """The optimal offline convergecast as a ``time -> (sender, receiver)`` map.

    Returns None when no convergecast starting at ``start`` completes within
    the sequence (the algorithm then never transmits).  This is the single
    plan builder shared by :class:`FullKnowledge`, the future-broadcast
    convergecast phase, and their vectorized decision kernels — sharing it
    makes kernel-vs-object plan equality true by construction.

    The plan is the one :func:`repro.offline.convergecast.
    build_convergecast_schedule` builds (the test suite holds the two
    equal), computed on dense int lists instead of interaction objects: the
    dense foremost-arrival sweep that also serves ratio capture
    (:func:`repro.ratio.kernels.foremost_arrivals`) gives ``opt(start)``,
    then a reverse flood from the sink over ``[start, opt(start)]``
    schedules each node at the interaction that first reaches it.
    """
    node_list = list(nodes)
    order, first, second = dense_pairs(sequence, [*node_list, sink])
    members = len(dict.fromkeys(node_list))
    s = order.index(sink)
    if len(node_list) <= 1:
        completion = max(start - 1, 0)
    else:
        arrival = foremost_arrivals(first, second, len(order), s, start)
        worst = max(arrival[k] for k in range(members) if k != s)
        if math.isinf(worst):
            return None
        completion = int(worst)
    informed = [False] * len(order)
    informed[s] = True
    planned: List[Tuple[int, int, int]] = []
    for time in range(completion, start - 1, -1):
        u = first[time]
        v = second[time]
        if informed[u]:
            if not informed[v]:
                planned.append((time, v, u))
                informed[v] = True
        elif informed[v]:
            planned.append((time, u, v))
            informed[u] = True
    # The flood must inform exactly the node set: a sink outside ``nodes``
    # or a relay outside them leaves no valid schedule.
    if not all(informed[:members]) or any(informed[members:]):
        return None
    return {
        time: (order[sender], order[receiver])
        for time, sender, receiver in reversed(planned)
    }


@registry.register
class FullKnowledge(DODAAlgorithm):
    """Execute the optimal offline convergecast schedule computed from full knowledge."""

    name = "full_knowledge"
    oblivious = True
    requires = frozenset({KNOWLEDGE_FULL})

    def __init__(self) -> None:
        self._nodes: Tuple[NodeId, ...] = ()
        self._sink: Optional[NodeId] = None
        self._plan: Optional[Dict[int, Tuple[NodeId, NodeId]]] = None
        self._plan_impossible = False

    def on_run_start(self, nodes: Iterable[NodeId], sink: NodeId) -> None:
        """Reset the cached schedule for a new run."""
        self._nodes = tuple(nodes)
        self._sink = sink
        self._plan = None
        self._plan_impossible = False

    def _ensure_plan(self, view: NodeView) -> None:
        """Compute (once per run) the optimal convergecast schedule from time 0."""
        if self._plan is not None or self._plan_impossible:
            return
        sequence = view.knowledge.full_sequence()
        plan = convergecast_plan(sequence, self._nodes, self._sink, start=0)
        if plan is None:
            # No convergecast fits in the committed sequence; never transmit.
            self._plan_impossible = True
            return
        self._plan = plan

    def decide(
        self, first: NodeView, second: NodeView, time: int
    ) -> Optional[NodeId]:
        self._ensure_plan(first if first.knowledge is not None else second)
        if self._plan is None:
            return None
        planned = self._plan.get(time)
        if planned is None:
            return None
        sender, receiver = planned
        if {sender, receiver} != {first.id, second.id}:
            return None
        return receiver
