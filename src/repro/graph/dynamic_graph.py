"""The dynamic graph ``(V, I)`` of the paper and its footprint.

A :class:`DynamicGraph` couples a node set with a finite interaction
sequence.  It offers the queries used throughout the reproduction: the
underlying graph (footprint) G-bar, recurrence of interactions, and per-node
meeting statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Tuple

from ..core.data import NodeId
from ..core.exceptions import InvalidInteractionError
from ..core.interaction import InteractionSequence

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class DynamicGraph:
    """A dynamic graph ``(V, I)`` with a designated sink.

    Attributes:
        nodes: the node set ``V`` (as an ordered tuple for determinism).
        sink: the sink node ``s``.
        sequence: the finite interaction sequence ``I``.
    """

    nodes: Tuple[NodeId, ...]
    sink: NodeId
    sequence: InteractionSequence

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InvalidInteractionError("node identifiers must be unique")
        if self.sink not in node_set:
            raise InvalidInteractionError(
                f"sink {self.sink!r} is not part of the node set"
            )
        stray = self.sequence.nodes() - node_set
        if stray:
            raise InvalidInteractionError(
                f"sequence references nodes outside V: {sorted(map(repr, stray))}"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        nodes: Iterable[NodeId],
        sink: NodeId,
        interactions: Iterable[Tuple[NodeId, NodeId]] | InteractionSequence,
    ) -> "DynamicGraph":
        """Build a dynamic graph from node identifiers and pairs."""
        if not isinstance(interactions, InteractionSequence):
            interactions = InteractionSequence.from_pairs(interactions)
        return cls(nodes=tuple(nodes), sink=sink, sequence=interactions)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of nodes ``n``."""
        return len(self.nodes)

    @property
    def length(self) -> int:
        """Number of interactions in the sequence."""
        return len(self.sequence)

    def non_sink_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes except the sink."""
        return tuple(node for node in self.nodes if node != self.sink)

    # ------------------------------------------------------------------ #
    # Footprint / recurrence
    # ------------------------------------------------------------------ #
    def underlying_graph(self) -> nx.Graph:
        """The footprint G-bar: an edge per pair interacting at least once."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for pair in self.sequence.footprint_edges():
            u, v = tuple(pair)
            graph.add_edge(u, v)
        return graph

    def is_footprint_connected(self) -> bool:
        """True if G-bar is connected (a necessary condition for aggregation)."""
        import networkx as nx

        graph = self.underlying_graph()
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(graph)

    def interaction_counts(self) -> Dict[FrozenSet[NodeId], int]:
        """Number of occurrences of every interacting pair."""
        counts: Dict[FrozenSet[NodeId], int] = {}
        for interaction in self.sequence:
            counts[interaction.pair] = counts.get(interaction.pair, 0) + 1
        return counts

    def is_recurrent(self, min_occurrences: int = 2) -> bool:
        """True if every edge of G-bar occurs at least ``min_occurrences`` times.

        Theorem 4 assumes that interactions occurring at least once occur
        infinitely often; on a finite prefix we approximate recurrence by a
        minimum occurrence count.
        """
        return all(
            count >= min_occurrences for count in self.interaction_counts().values()
        )

    def meeting_times_with_sink(self, node: NodeId) -> List[int]:
        """Times at which ``node`` interacts with the sink."""
        return [
            interaction.time
            for interaction in self.sequence
            if interaction.pair == frozenset((node, self.sink))
        ]

    def degree_in_footprint(self, node: NodeId) -> int:
        """Degree of ``node`` in G-bar."""
        return self.underlying_graph().degree(node)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def prefix(self, length: int) -> "DynamicGraph":
        """The dynamic graph restricted to the first ``length`` interactions."""
        return DynamicGraph(
            nodes=self.nodes,
            sink=self.sink,
            sequence=self.sequence.slice(0, length),
        )

    def with_sequence(self, sequence: InteractionSequence) -> "DynamicGraph":
        """Same node set and sink, different interaction sequence."""
        return DynamicGraph(nodes=self.nodes, sink=self.sink, sequence=sequence)
