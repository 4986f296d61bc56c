"""The underlying-graph oracle of Section 3.2 (nodes know G-bar).

G-bar is the static graph whose edges are the pairs of nodes interacting at
least once in the whole sequence.  The oracle can be built from an explicit
edge list (useful for adaptive adversaries that commit to a footprint
without committing to the sequence), from a committed finite sequence, or
— for adversaries that can eventually produce every pair — as the complete
graph on a node set (:meth:`UnderlyingGraphKnowledge.complete`), which
stores no edge list at all.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.data import NodeId
from ..core.interaction import InteractionSequence

if TYPE_CHECKING:
    import networkx as nx


class UnderlyingGraphKnowledge:
    """Oracle exposing the underlying graph G-bar as a networkx graph."""

    knowledge_name = "underlying_graph"

    def __init__(
        self,
        nodes: Iterable[NodeId],
        edges: Optional[Iterable[Tuple[NodeId, NodeId]]] = None,
        sequence: Optional[InteractionSequence] = None,
    ) -> None:
        if (edges is None) == (sequence is None):
            raise ValueError("provide exactly one of 'edges' or 'sequence'")
        self._nodes: List[NodeId] = list(nodes)
        # None marks the complete graph on ``_nodes`` (see complete()).
        self._edges: Optional[List[Tuple[NodeId, ...]]]
        if edges is not None:
            self._edges = list(edges)
        else:
            assert sequence is not None
            self._edges = [tuple(pair) for pair in sequence.footprint_edges()]

    @classmethod
    def complete(cls, nodes: Iterable[NodeId]) -> "UnderlyingGraphKnowledge":
        """G-bar as the complete graph on ``nodes``, with no edge list stored."""
        oracle = cls.__new__(cls)
        oracle._nodes = list(nodes)
        oracle._edges = None
        return oracle

    @property
    def complete_nodes(self) -> Optional[FrozenSet[NodeId]]:
        """The node set when G-bar is stored as its complete graph, else None.

        Lets array-form readers (the spanning-tree decision kernel) use the
        complete graph's structure without building it.
        """
        return frozenset(self._nodes) if self._edges is None else None

    def underlying_graph(self) -> nx.Graph:
        """G-bar as a new networkx graph, built on every call.

        Callers may mutate the result without touching the oracle.  A build
        is not cheap: the complete graph at n = 300 takes about 45 ms (and
        copying it took twice that), so object-form readers call this once
        per run.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        graph.add_edges_from(
            combinations(self._nodes, 2) if self._edges is None else self._edges
        )
        return graph

    @property
    def edge_set(self) -> Set[FrozenSet[NodeId]]:
        """The edges of G-bar as a set of unordered pairs."""
        return {frozenset(edge) for edge in self.underlying_graph().edges()}
