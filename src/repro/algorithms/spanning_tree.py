"""Spanning-tree aggregation when nodes know the underlying graph (Section 3.2).

Every node deterministically computes the same spanning tree of G-bar rooted
at the sink (a BFS tree with neighbours visited in identifier order), waits
until it has received the data of all its children, and then transmits to
its parent at the first opportunity.

* Theorem 4: if every interaction of G-bar occurs infinitely often, the
  algorithm terminates, hence has finite cost — but the cost is unbounded in
  general (the adversary can starve the one tree edge the algorithm waits
  for while offering convergecasts through another spanning tree).
* Theorem 5: if G-bar is a tree, the algorithm is optimal (cost 1): the tree
  is the only spanning tree, and transmitting as soon as a subtree is
  complete is exactly what the optimal offline schedule does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..core.algorithm import (
    DODAAlgorithm,
    KNOWLEDGE_UNDERLYING_GRAPH,
    registry,
)
from ..core.data import NodeId
from ..core.node import NodeView

if TYPE_CHECKING:
    import networkx as nx

_RECEIVED_KEY = "spanning_tree/received_from"


@registry.register
class SpanningTreeAggregation(DODAAlgorithm):
    """Aggregate bottom-up along a deterministic spanning tree of G-bar."""

    name = "spanning_tree"
    oblivious = False
    requires = frozenset({KNOWLEDGE_UNDERLYING_GRAPH})

    def __init__(self) -> None:
        self._parent: Optional[Dict[NodeId, Optional[NodeId]]] = None
        self._children: Optional[Dict[NodeId, Set[NodeId]]] = None
        self._sink: Optional[NodeId] = None

    def on_run_start(self, nodes: Iterable[NodeId], sink: NodeId) -> None:
        """Forget the tree computed for a previous run."""
        self._parent = None
        self._children = None
        self._sink = sink

    # ------------------------------------------------------------------ #
    def _ensure_tree(self, view: NodeView) -> None:
        """Compute the deterministic BFS spanning tree once per run."""
        if self._parent is not None:
            return
        graph: nx.Graph = view.knowledge.underlying_graph()
        sink = self._sink
        if sink is None:
            # Fallback: the sink is identifiable from the views at decide time;
            # on_run_start normally sets it.
            raise RuntimeError("on_run_start was not called before decide")
        parent, children = build_bfs_tree(graph, sink)
        self._parent = parent
        self._children = children

    def decide(
        self, first: NodeView, second: NodeView, time: int
    ) -> Optional[NodeId]:
        self._ensure_tree(first if first.knowledge is not None else second)
        assert self._parent is not None and self._children is not None
        for child_view, parent_view in ((first, second), (second, first)):
            if self._parent.get(child_view.id) != parent_view.id:
                continue
            expected = self._children.get(child_view.id, set())
            received = child_view.memory.get(_RECEIVED_KEY, set())
            if expected <= received:
                # The child's subtree is fully aggregated: send it upward and
                # record the reception at the parent.
                parent_received = parent_view.memory.setdefault(
                    _RECEIVED_KEY, set()
                )
                parent_received.add(child_view.id)
                return parent_view.id
        return None


def dense_bfs_tree(
    graph: nx.Graph, root: NodeId, index_of: Dict[NodeId, int]
) -> Tuple[List[int], List[int]]:
    """The deterministic BFS tree in dense-index form for the array engine.

    Returns ``(parent, needed)`` lists indexed by ``index_of`` position:
    ``parent[i]`` is the dense index of node ``i``'s tree parent (``-1`` for
    the root, unreachable nodes, and parents outside ``index_of``) and
    ``needed[i]`` counts *all* tree children of node ``i`` — including
    children outside ``index_of``, which can never report in and therefore
    keep the node waiting forever, exactly like the object algorithm's
    never-satisfiable ``expected`` set.
    """
    parent_map, children_map = build_bfs_tree(graph, root)
    size = len(index_of)
    parent = [-1] * size
    needed = [0] * size
    for node, position in index_of.items():
        tree_parent = parent_map.get(node)
        if tree_parent is not None:
            parent[position] = index_of.get(tree_parent, -1)
        needed[position] = len(children_map.get(node, ()))
    return parent, needed


def build_bfs_tree(
    graph: nx.Graph, root: NodeId
) -> Tuple[Dict[NodeId, Optional[NodeId]], Dict[NodeId, Set[NodeId]]]:
    """Deterministic BFS tree of ``graph`` rooted at ``root``.

    Neighbours are visited in ascending ``repr`` order of their identifier so
    that every node computes the same tree, as the paper requires ("they
    compute the same tree, using node identifiers").

    Returns:
        ``(parent, children)`` maps.  Nodes unreachable from the root are
        absent from both maps (no aggregation can include them anyway).
    """
    parent: Dict[NodeId, Optional[NodeId]] = {root: None}
    children: Dict[NodeId, Set[NodeId]] = {root: set()}
    frontier: List[NodeId] = [root]
    while frontier:
        next_frontier: List[NodeId] = []
        for node in frontier:
            neighbours = sorted(graph.neighbors(node), key=repr)
            for neighbour in neighbours:
                if neighbour in parent:
                    continue
                parent[neighbour] = node
                children.setdefault(neighbour, set())
                children.setdefault(node, set()).add(neighbour)
                next_frontier.append(neighbour)
        frontier = next_frontier
    return parent, children
