"""Generators of interaction sequences.

These produce the workloads used by the experiments:

* :func:`uniform_random_sequence` — the randomized adversary's distribution
  (each interaction drawn uniformly among all ``n(n-1)/2`` pairs);
* :func:`round_robin_sequence` and :func:`periodic_sequence` — deterministic
  recurrent sequences used for Theorems 4 and 5;
* :func:`star_with_sink_sequence`, :func:`line_sequence`,
  :func:`ring_sequence`, :func:`tree_recurrent_sequence` — sequences whose
  footprint is a fixed topology;
* :func:`edge_markov_sequence` — a temporally-correlated random sequence (an
  extension beyond the paper's adversaries, useful as an ablation of the
  uniform-randomness assumption);
* :func:`random_tree` — a uniformly random labelled tree, used as the
  footprint for Theorem 5 experiments.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.data import NodeId
from ..core.exceptions import ConfigurationError
from ..core.interaction import InteractionSequence

if TYPE_CHECKING:
    import networkx as nx


def default_nodes(n: int) -> List[int]:
    """The canonical node set ``0..n-1`` with node 0 used as the sink."""
    if n < 2:
        raise ConfigurationError("need at least two nodes")
    return list(range(n))


def all_pairs(nodes: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    """Every unordered pair of distinct nodes."""
    return list(combinations(nodes, 2))


def uniform_random_sequence(
    nodes: Sequence[NodeId],
    length: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> InteractionSequence:
    """Draw ``length`` interactions uniformly at random among all pairs.

    This is exactly the randomized adversary of Section 4: every interaction
    occurs with probability ``2 / (n (n-1))`` independently of the past.
    """
    rng = _resolve_rng(rng, seed)
    pairs = all_pairs(nodes)
    if not pairs:
        raise ConfigurationError("need at least two nodes to draw interactions")
    drawn = [pairs[rng.randrange(len(pairs))] for _ in range(length)]
    return InteractionSequence.from_pairs(drawn)


def round_robin_sequence(
    nodes: Sequence[NodeId], rounds: int = 1
) -> InteractionSequence:
    """Cycle deterministically through every pair, ``rounds`` times.

    The resulting sequence is recurrent (every footprint edge appears once
    per round) and its footprint is the complete graph.
    """
    pairs = all_pairs(nodes)
    return InteractionSequence.from_pairs(pairs * rounds)


def periodic_sequence(
    pattern: Sequence[Tuple[NodeId, NodeId]], repetitions: int
) -> InteractionSequence:
    """Repeat a fixed pattern of pairs ``repetitions`` times."""
    return InteractionSequence.from_pairs(list(pattern) * repetitions)


def star_with_sink_sequence(
    nodes: Sequence[NodeId], sink: NodeId, rounds: int = 1
) -> InteractionSequence:
    """Every non-sink node interacts with the sink once per round."""
    others = [node for node in nodes if node != sink]
    pattern = [(node, sink) for node in others]
    return InteractionSequence.from_pairs(pattern * rounds)


def line_sequence(
    nodes: Sequence[NodeId], rounds: int = 1, reverse: bool = False
) -> InteractionSequence:
    """Consecutive nodes of the given order interact, once per round.

    With ``reverse=False`` the pattern is ``(v0,v1), (v1,v2), ...`` which
    forms a journey from ``v0`` towards the end of the line inside a single
    round; with ``reverse=True`` the pattern is reversed, which requires a
    full round per hop for data moving towards ``v0``.
    """
    ordered = list(nodes)
    pattern = [(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1)]
    if reverse:
        pattern = list(reversed(pattern))
    return InteractionSequence.from_pairs(pattern * rounds)


def ring_sequence(nodes: Sequence[NodeId], rounds: int = 1) -> InteractionSequence:
    """Consecutive nodes around a ring interact, once per round."""
    ordered = list(nodes)
    count = len(ordered)
    pattern = [(ordered[i], ordered[(i + 1) % count]) for i in range(count)]
    return InteractionSequence.from_pairs(pattern * rounds)


def tree_recurrent_sequence(
    tree: nx.Graph, rounds: int = 1, order: str = "bottom_up",
    root: Optional[NodeId] = None,
) -> InteractionSequence:
    """A recurrent sequence whose footprint is exactly ``tree``.

    ``order`` controls the order of edges within a round:

    * ``"bottom_up"`` — edges sorted by decreasing depth of their lower
      endpoint (requires ``root``); a single round then suffices for an
      optimal convergecast towards the root;
    * ``"sorted"`` — canonical edge order (depth-agnostic).
    """
    import networkx as nx

    if not nx.is_tree(tree):
        raise ConfigurationError("tree_recurrent_sequence requires a tree")
    edges = list(tree.edges())
    if order == "bottom_up":
        if root is None:
            raise ConfigurationError("bottom_up order requires a root")
        depth = nx.shortest_path_length(tree, source=root)
        edges.sort(key=lambda edge: -max(depth[edge[0]], depth[edge[1]]))
    elif order == "sorted":
        edges.sort(key=lambda edge: (repr(edge[0]), repr(edge[1])))
    else:
        raise ConfigurationError(f"unknown order {order!r}")
    return InteractionSequence.from_pairs(edges * rounds)


def edge_markov_sequence(
    nodes: Sequence[NodeId],
    length: int,
    persistence: float = 0.7,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> InteractionSequence:
    """A temporally-correlated random sequence.

    With probability ``persistence`` the next interaction re-uses one of the
    endpoints of the previous interaction (paired with a uniformly random
    other node); otherwise it is drawn uniformly.  This models the locality
    of real contact traces and serves as an ablation of the uniform
    randomness assumed by the paper's randomized adversary.
    """
    if not 0.0 <= persistence <= 1.0:
        raise ConfigurationError("persistence must be in [0, 1]")
    rng = _resolve_rng(rng, seed)
    node_list = list(nodes)
    if len(node_list) < 2:
        raise ConfigurationError("need at least two nodes")
    pairs = all_pairs(node_list)
    drawn: List[Tuple[NodeId, NodeId]] = []
    previous: Optional[Tuple[NodeId, NodeId]] = None
    for _ in range(length):
        if previous is not None and rng.random() < persistence:
            anchor = previous[rng.randrange(2)]
            peer = anchor
            while peer == anchor:
                peer = node_list[rng.randrange(len(node_list))]
            pair = (anchor, peer)
        else:
            pair = pairs[rng.randrange(len(pairs))]
        drawn.append(pair)
        previous = pair
    return InteractionSequence.from_pairs(drawn)


def random_tree(
    n: int, rng: Optional[random.Random] = None, seed: Optional[int] = None
) -> nx.Graph:
    """A uniformly random labelled tree on nodes ``0..n-1`` (Prüfer decoding)."""
    import networkx as nx

    rng = _resolve_rng(rng, seed)
    if n < 2:
        raise ConfigurationError("a tree needs at least two nodes")
    if n == 2:
        tree = nx.Graph()
        tree.add_edge(0, 1)
        return tree
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(sequence)


def sequence_with_footprint(
    graph: nx.Graph,
    rounds: int,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    shuffle_each_round: bool = True,
) -> InteractionSequence:
    """A recurrent sequence whose footprint equals the edges of ``graph``."""
    rng = _resolve_rng(rng, seed)
    edges = list(graph.edges())
    if not edges:
        raise ConfigurationError("graph has no edges")
    pattern: List[Tuple[NodeId, NodeId]] = []
    for _ in range(rounds):
        round_edges = list(edges)
        if shuffle_each_round:
            rng.shuffle(round_edges)
        pattern.extend(round_edges)
    return InteractionSequence.from_pairs(pattern)


def _resolve_rng(
    rng: Optional[random.Random], seed: Optional[int]
) -> random.Random:
    """Return the provided RNG, or a fresh one seeded with ``seed``."""
    if rng is not None:
        return rng
    return random.Random(seed)
