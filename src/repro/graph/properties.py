"""Structural properties of dynamic graphs used across the experiments.

These helpers classify a finite interaction sequence along the axes the
paper's theorems care about: recurrence of interactions (Theorem 4), tree
footprints (Theorem 5), temporal connectivity towards the sink (feasibility
of any aggregation at all), and simple summary statistics used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.data import NodeId
from .dynamic_graph import DynamicGraph
from .journeys import is_temporally_connected_to


@dataclass(frozen=True)
class SequenceStatistics:
    """Summary statistics of an interaction sequence."""

    node_count: int
    interaction_count: int
    distinct_pairs: int
    footprint_edges: int
    footprint_is_tree: bool
    footprint_is_connected: bool
    recurrent: bool
    sink_contact_count: int
    mean_intercontact_with_sink: Optional[float]


def footprint_is_tree(graph: DynamicGraph) -> bool:
    """True if the underlying graph G-bar is a tree (Theorem 5's hypothesis)."""
    import networkx as nx

    footprint = graph.underlying_graph()
    return footprint.number_of_nodes() > 0 and nx.is_tree(footprint)


def aggregation_feasible(graph: DynamicGraph) -> bool:
    """True if an offline aggregation towards the sink exists at all.

    Equivalent to every node having a time-respecting journey to the sink.
    """
    return is_temporally_connected_to(
        graph.sequence, graph.nodes, graph.sink
    )


def sink_contact_times(graph: DynamicGraph) -> List[int]:
    """Times of all interactions involving the sink."""
    return [
        interaction.time
        for interaction in graph.sequence
        if interaction.involves(graph.sink)
    ]


def mean_intercontact_time(times: List[int]) -> Optional[float]:
    """Mean gap between consecutive contact times (None with < 2 contacts)."""
    if len(times) < 2:
        return None
    gaps = [b - a for a, b in zip(times, times[1:])]
    return sum(gaps) / len(gaps)


def summarize(graph: DynamicGraph, recurrence_threshold: int = 2) -> SequenceStatistics:
    """Compute the :class:`SequenceStatistics` of a dynamic graph."""
    import networkx as nx

    footprint = graph.underlying_graph()
    contacts = sink_contact_times(graph)
    return SequenceStatistics(
        node_count=graph.size,
        interaction_count=graph.length,
        distinct_pairs=len(graph.sequence.footprint_edges()),
        footprint_edges=footprint.number_of_edges(),
        footprint_is_tree=footprint.number_of_edges() > 0 and nx.is_tree(footprint),
        footprint_is_connected=graph.is_footprint_connected(),
        recurrent=graph.is_recurrent(min_occurrences=recurrence_threshold),
        sink_contact_count=len(contacts),
        mean_intercontact_with_sink=mean_intercontact_time(contacts),
    )


def distinct_sink_contacts_within(
    graph: DynamicGraph, horizon: int
) -> int:
    """Number of distinct non-sink nodes meeting the sink within ``horizon``.

    This is the quantity analysed by Lemma 1 of the paper.
    """
    seen = set()
    for interaction in graph.sequence.window(0, horizon):
        if interaction.involves(graph.sink):
            seen.add(interaction.other(graph.sink))
    return len(seen)


def temporal_eccentricity_to_sink(graph: DynamicGraph) -> Dict[NodeId, float]:
    """Foremost arrival time to the sink for every node (inf if unreachable).

    Computed through the reverse sweep of the offline module; exposed here
    for analysis convenience.
    """
    from ..offline.convergecast import foremost_arrival_times

    return foremost_arrival_times(graph.sequence, graph.nodes, graph.sink)
