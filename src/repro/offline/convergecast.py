"""Exact offline optimal convergecast on a sequence of interactions.

Because every time slot carries a single interaction, an optimal offline
aggregation within a window ``[start, T]`` exists **iff** every non-sink node
has a time-respecting journey to the sink using interactions of the window.
This is the broadcast/convergecast duality used in Theorem 8 of the paper:
reverse the window and flood from the sink; the flooding order, read back in
forward time, is a valid aggregation schedule in which every node transmits
at the time it was first reached by the reversed flood.

Consequently the ending time of an optimal convergecast starting at ``t`` is

    ``opt(t) = max over non-sink u of  foremost(u, t)``

where ``foremost(u, t)`` is the earliest arrival time at the sink of a
journey from ``u`` that starts at or after ``t``.  Foremost arrival times for
*all* nodes are computed with a single backward sweep over the sequence.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set

from ..core.data import NodeId
from ..core.exceptions import InvalidScheduleError
from ..core.interaction import InteractionSequence
from .schedule import AggregationSchedule, ScheduledTransmission

#: Returned by :func:`opt` and :func:`foremost_arrival_times` when no
#: journey exists within the finite sequence (the paper's ``opt(t) = ∞``).
#: This is the *documented sentinel* for impossible aggregations — finite
#: traces that end too early, disconnected tails, nodes that never meet —
#: shared with the dense sweep of :mod:`repro.ratio.kernels` as
#: :data:`repro.ratio.semantics.UNREACHABLE`.  Callers must treat it as a
#: value, never as an error: every function here returns it instead of
#: raising when the offline optimum does not exist.
INFINITY = math.inf


def foremost_arrival_times(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    sink: NodeId,
    start: int = 0,
) -> Dict[NodeId, float]:
    """Earliest arrival time at the sink for every node, starting at ``start``.

    ``result[u]`` is the smallest time ``t`` such that there is a
    time-respecting journey (strictly increasing interaction times) from
    ``u`` to ``sink`` using interactions with times in ``[start, t]``.
    ``result[sink]`` is ``start - 1`` by convention (its data is already at
    the sink).  Nodes with no journey map to ``math.inf``.

    The computation is a single backward pass: processing interactions from
    the end of the sequence towards ``start`` and relaxing through the peer's
    currently-known foremost arrival (which, at that point of the sweep, only
    accounts for strictly later interactions — exactly what a journey needs).
    """
    node_list = list(nodes)
    arrival: Dict[NodeId, float] = {node: INFINITY for node in node_list}
    arrival[sink] = start - 1
    for index in range(len(sequence) - 1, start - 1, -1):
        interaction = sequence[index]
        u, v = interaction.u, interaction.v
        time = interaction.time
        arrival_u = arrival.get(u, INFINITY)
        arrival_v = arrival.get(v, INFINITY)
        # Candidate arrival for u going through v at this interaction: if v is
        # the sink the journey completes now; otherwise v must continue with a
        # journey using strictly later interactions, whose foremost arrival is
        # the current arrival[v] (computed from later interactions only).
        candidate_u = time if v == sink else (arrival_v if arrival_v > time else INFINITY)
        candidate_v = time if u == sink else (arrival_u if arrival_u > time else INFINITY)
        if u != sink and candidate_u < arrival_u:
            arrival[u] = candidate_u
        if v != sink and candidate_v < arrival_v:
            arrival[v] = candidate_v
    return arrival


def opt(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    sink: NodeId,
    start: int = 0,
) -> float:
    """The paper's ``opt(start)``: ending time of an optimal convergecast.

    Returns ``math.inf`` if no convergecast starting at ``start`` completes
    within the (finite) sequence.
    """
    node_list = list(nodes)
    if len(node_list) <= 1:
        return float(max(start - 1, 0))
    arrivals = foremost_arrival_times(sequence, node_list, sink, start=start)
    worst = max(arrivals[node] for node in node_list if node != sink)
    return worst


def convergecast_possible(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    sink: NodeId,
    start: int = 0,
    end: Optional[int] = None,
) -> bool:
    """True if an aggregation using only interactions in ``[start, end]`` exists."""
    node_list = list(nodes)
    limit = len(sequence) if end is None else min(end + 1, len(sequence))
    window = InteractionSequence(
        [sequence[i] for i in range(start, limit)]
    )
    if len(node_list) <= 1:
        return True
    arrivals = foremost_arrival_times(window, node_list, sink, start=0)
    return all(
        not math.isinf(arrivals[node]) for node in node_list if node != sink
    )


def build_convergecast_schedule(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    sink: NodeId,
    start: int = 0,
) -> AggregationSchedule:
    """Construct an explicit optimal convergecast schedule starting at ``start``.

    The schedule is obtained by flooding from the sink over the *reversed*
    window ``[start, opt(start)]``: whenever an informed node meets an
    uninformed node in reverse time, the uninformed node is scheduled to
    transmit (in forward time) at that interaction, towards the informed
    node.  The result is optimal: its completion time equals ``opt(start)``.

    Raises:
        InvalidScheduleError: if no convergecast starting at ``start``
            completes within the sequence.
    """
    node_list = list(nodes)
    completion = opt(sequence, node_list, sink, start=start)
    if math.isinf(completion):
        raise InvalidScheduleError(
            f"no convergecast starting at t={start} completes within the "
            f"sequence of length {len(sequence)}"
        )
    completion_time = int(completion)
    informed: Set[NodeId] = {sink}
    transmissions: List[ScheduledTransmission] = []
    for time in range(completion_time, start - 1, -1):
        interaction = sequence[time]
        u, v = interaction.u, interaction.v
        u_informed = u in informed
        v_informed = v in informed
        if u_informed and not v_informed:
            transmissions.append(
                ScheduledTransmission(time=time, sender=v, receiver=u)
            )
            informed.add(v)
        elif v_informed and not u_informed:
            transmissions.append(
                ScheduledTransmission(time=time, sender=u, receiver=v)
            )
            informed.add(u)
    if informed != set(node_list):
        raise InvalidScheduleError(
            "internal error: reverse flooding did not reach all nodes even "
            "though opt() is finite"
        )
    return AggregationSchedule.from_transmissions(transmissions, start=start)


def successive_convergecasts(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    sink: NodeId,
    count: Optional[int] = None,
) -> List[float]:
    """The paper's ``T(i)``: ending times of ``i`` successive convergecasts.

    ``T(1) = opt(0)`` and ``T(i+1) = opt(T(i) + 1)``.  The list stops either
    after ``count`` entries or at the first :data:`INFINITY` entry (every
    later entry would be infinite as well) — sequences on which aggregation
    is impossible (finite traces that end too early, disconnected tails)
    therefore yield the documented ``INFINITY`` sentinel, never an
    exception, and the function always terminates.

    Degenerate instances where ``opt`` cannot advance the start (fewer than
    two nodes, whose convergecasts complete without consuming any
    interaction) stop after recording the first repeated value instead of
    looping forever on the same window.

    Raises:
        ValueError: if ``count`` is given but not positive.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    values: List[float] = []
    start = 0
    node_list = list(nodes)
    while count is None or len(values) < count:
        ending = opt(sequence, node_list, sink, start=start)
        values.append(ending)
        if math.isinf(ending):
            break
        next_start = int(ending) + 1
        if next_start <= start:
            # No progress (degenerate <= 1-node instance): every further
            # convergecast would end at the same time; stop here instead of
            # re-sweeping the same window forever.
            break
        start = next_start
        if start >= len(sequence) and count is None:
            # The next convergecast cannot even begin; record it as infinite
            # and stop when the caller did not request a fixed count.
            values.append(INFINITY)
            break
    return values
