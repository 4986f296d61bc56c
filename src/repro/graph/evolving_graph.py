"""Conversion between the interaction-sequence model and evolving graphs.

The paper notes that its model is a simplification of the *evolving graph*
model [Casteigts et al.] in which each static snapshot has a single edge.
This module provides both directions of the conversion:

* :func:`to_evolving_graph` — the sequence as a list of single-edge static
  graphs (networkx), one per time step;
* :func:`from_evolving_graph` — flatten a general evolving graph (a list of
  static graphs with arbitrarily many edges) into an interaction sequence by
  serialising each snapshot's edges in a deterministic order.  This is the
  standard reduction used when feeding contact traces (which report several
  simultaneous contacts) to the pairwise-interaction model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from ..core.data import NodeId
from ..core.interaction import InteractionSequence

if TYPE_CHECKING:
    import networkx as nx


def to_evolving_graph(
    sequence: InteractionSequence, nodes: Iterable[NodeId]
) -> List[nx.Graph]:
    """Represent ``sequence`` as one single-edge static graph per time step."""
    import networkx as nx

    node_list = list(nodes)
    snapshots: List[nx.Graph] = []
    for interaction in sequence:
        graph = nx.Graph()
        graph.add_nodes_from(node_list)
        graph.add_edge(interaction.u, interaction.v, time=interaction.time)
        snapshots.append(graph)
    return snapshots


def from_evolving_graph(
    snapshots: Sequence[nx.Graph],
    edge_order: str = "sorted",
) -> InteractionSequence:
    """Flatten an evolving graph into a pairwise interaction sequence.

    Each snapshot's edges are emitted consecutively; ``edge_order`` controls
    the order within a snapshot:

    * ``"sorted"`` — deterministic order by the canonical representation of
      the endpoints (default);
    * ``"insertion"`` — the order networkx reports them.

    The flattening preserves reachability: any journey in the evolving graph
    that uses at most one edge per snapshot maps to a journey in the
    flattened sequence.
    """
    pairs: List[Tuple[NodeId, NodeId]] = []
    for graph in snapshots:
        edges = list(graph.edges())
        if edge_order == "sorted":
            edges.sort(key=lambda edge: (repr(edge[0]), repr(edge[1])))
        elif edge_order != "insertion":
            raise ValueError(f"unknown edge_order {edge_order!r}")
        pairs.extend(edges)
    return InteractionSequence.from_pairs(pairs)


def snapshot_at(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    time: int,
) -> nx.Graph:
    """The single-edge static graph of the interaction occurring at ``time``."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(list(nodes))
    if 0 <= time < len(sequence):
        interaction = sequence[time]
        graph.add_edge(interaction.u, interaction.v, time=time)
    return graph


def aggregate_window(
    sequence: InteractionSequence,
    nodes: Iterable[NodeId],
    start: int,
    stop: int,
) -> nx.Graph:
    """The union of all edges appearing at times in ``[start, stop)``."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(list(nodes))
    stop = min(stop, len(sequence))
    for index in range(max(start, 0), stop):
        interaction = sequence[index]
        graph.add_edge(interaction.u, interaction.v)
    return graph
