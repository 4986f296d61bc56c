"""Array-first knowledge trials: dense sequences, array plan builders, G-bar.

A knowledge trial stays in dense index arrays from the adversary's
committed buffer to the decision kernels.  This file holds that path to
its two contracts:

* **nothing is materialised** — a vectorized ``full_knowledge``,
  ``future_broadcast`` or ``spanning_tree`` cell builds no
  :class:`~repro.core.interaction.Interaction` object and no networkx
  graph, and falls back for no trial;
* **nothing changes** — the array-backed
  :class:`~repro.core.interaction.InteractionSequence` equals the eager
  one, the bitset :func:`~repro.algorithms.future_broadcast.
  gossip_completion_time` equals the set-based gossip simulation kept here
  as its oracle, and :func:`~repro.algorithms.full_knowledge.
  convergecast_plan` equals the plan read off :func:`~repro.offline.
  convergecast.build_convergecast_schedule`, on any input, including the
  ones on which they raise.
"""

from __future__ import annotations

import warnings

import networkx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import common_settings, committed_schedules, interaction_sequences

from repro.algorithms.full_knowledge import FullKnowledge, convergecast_plan
from repro.algorithms.future_broadcast import FutureBroadcast, gossip_completion_time
from repro.algorithms.spanning_tree import SpanningTreeAggregation
from repro.core.exceptions import InvalidInteractionError, InvalidScheduleError
from repro.core.interaction import Interaction, InteractionSequence
from repro.core.vector_execution import EngineFallbackWarning
from repro.knowledge import UnderlyingGraphKnowledge
from repro.offline.convergecast import build_convergecast_schedule
from repro.sim.batch import run_sweep_cell


def set_gossip_completion_time(sequence, nodes):
    """The set-based gossip simulation: one set of known futures per node."""
    knowledge = {node: {node} for node in nodes}
    full = set(nodes)
    if all(knowledge[node] == full for node in nodes):
        return -1
    for interaction in sequence:
        u, v = interaction.u, interaction.v
        union = knowledge[u] | knowledge[v]
        knowledge[u] = union
        knowledge[v] = set(union)
        if all(knowledge[node] >= full for node in nodes):
            return interaction.time
    return None


def schedule_plan(sequence, nodes, sink, start):
    """The ``time -> (sender, receiver)`` plan of the object schedule builder."""
    try:
        schedule = build_convergecast_schedule(sequence, nodes, sink, start=start)
    except InvalidScheduleError:
        return None
    return {t.time: (t.sender, t.receiver) for t in schedule.transmissions}


def outcome(function, *args, **kwargs):
    """The function's result, or the type of the exception it raised."""
    try:
        return ("returned", function(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return ("raised", type(exc))


def dense_twin(sequence: InteractionSequence, labels) -> InteractionSequence:
    """``sequence`` over nodes ``0..`` as an array-backed sequence on ``labels``.

    Every other pair is stored flipped, so readers that assume an
    orientation would disagree with the eager form.
    """
    i = np.array([interaction.u for interaction in sequence], dtype=np.int64)
    j = np.array([interaction.v for interaction in sequence], dtype=np.int64)
    i[::2], j[::2] = j[::2].copy(), i[::2].copy()
    return InteractionSequence.from_index_arrays(labels, i, j)


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts of Interaction objects and networkx graphs built from now on."""
    counts = {"interactions": 0, "graphs": 0}
    post_init = Interaction.__post_init__
    graph_init = networkx.Graph.__init__

    def counting_post_init(self):
        counts["interactions"] += 1
        post_init(self)

    def counting_graph_init(self, *args, **kwargs):
        counts["graphs"] += 1
        graph_init(self, *args, **kwargs)

    monkeypatch.setattr(Interaction, "__post_init__", counting_post_init)
    monkeypatch.setattr(networkx.Graph, "__init__", counting_graph_init)
    return counts


# --------------------------------------------------------------------- #
# Regression guard: knowledge cells never leave the arrays
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory",
    [
        lambda n: FullKnowledge(),
        lambda n: FutureBroadcast(),
        lambda n: SpanningTreeAggregation(),
    ],
    ids=["full_knowledge", "future_broadcast", "spanning_tree"],
)
def test_vectorized_knowledge_cell_builds_no_objects(factory, construction_counts):
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        metrics = run_sweep_cell(
            factory, 16, 3, master_seed=11, engine="vectorized"
        )
    assert construction_counts == {"interactions": 0, "graphs": 0}
    assert not any("engine_fallback" in m.extra for m in metrics)
    assert all(m.terminated for m in metrics)


def test_object_readers_still_materialise(construction_counts):
    """The reference engine reads the same oracles through objects."""
    metrics = run_sweep_cell(
        lambda n: SpanningTreeAggregation(), 8, 1, master_seed=2,
        engine="reference",
    )
    assert metrics[0].terminated
    assert construction_counts["graphs"] == 1
    assert construction_counts["interactions"] > 0


# --------------------------------------------------------------------- #
# Array-backed InteractionSequence
# --------------------------------------------------------------------- #
@st.composite
def labelled_schedules(draw):
    """``(labels, i, j)``: a raw-orientation schedule over string labels."""
    schedule = draw(committed_schedules(min_nodes=2, max_nodes=7, min_len=0, max_len=40))
    labels = draw(st.permutations([f"v{k}" for k in range(schedule.n)]))
    return labels, schedule.i, schedule.j


def eager_twin(labels, i, j) -> InteractionSequence:
    return InteractionSequence.from_pairs(
        [(labels[a], labels[b]) for a, b in zip(i.tolist(), j.tolist())]
    )


def unordered(arrays):
    i, j = arrays
    return np.minimum(i, j).tolist(), np.maximum(i, j).tolist()


@common_settings
@given(data=labelled_schedules(), query=st.data())
def test_dense_sequence_equals_eager(data, query):
    labels, i, j = data
    eager = eager_twin(labels, i, j)

    def dense():
        return InteractionSequence.from_index_arrays(labels, i, j)

    length = len(eager)
    start = query.draw(st.integers(-2, length + 2))
    stop = query.draw(st.one_of(st.none(), st.integers(-2, length + 2)))
    assert dense().slice(start, stop) == eager.slice(start, stop)
    assert len(dense().slice(start, stop)) == len(eager.slice(start, stop))
    node = query.draw(st.sampled_from(labels))
    peer = query.draw(st.sampled_from(labels))
    after = query.draw(st.integers(-1, length))
    assert dense().next_meeting(node, peer, after) == eager.next_meeting(
        node, peer, after
    )
    assert dense().footprint_edges() == eager.footprint_edges()
    assert dense().pairs == eager.pairs
    order = query.draw(st.permutations(labels))
    index_of = {label: position for position, label in enumerate(order)}
    assert unordered(dense().index_arrays(index_of)) == unordered(
        eager.index_arrays(index_of)
    )
    # A node missing from the map is an error exactly when it occurs.
    dropped = query.draw(st.sampled_from(labels))
    partial = {label: k for label, k in index_of.items() if label != dropped}
    assert outcome(lambda: unordered(dense().index_arrays(partial))) == outcome(
        lambda: unordered(eager.index_arrays(partial))
    )
    assert dense() == eager and eager == dense()
    assert hash(dense()) == hash(eager)
    assert list(dense()) == list(eager)


def test_index_arrays_in_own_order_are_read_only_views():
    i = np.array([0, 2, 1], dtype=np.int64)
    j = np.array([1, 0, 2], dtype=np.int64)
    sequence = InteractionSequence.from_index_arrays(["a", "b", "c"], i, j)
    got_i, got_j = sequence.index_arrays({"a": 0, "b": 1, "c": 2, "d": 3})
    assert np.shares_memory(got_i, i) and np.shares_memory(got_j, j)
    with pytest.raises(ValueError):
        got_i[0] = 2


def test_len_and_array_reads_do_not_materialise(construction_counts):
    sequence = InteractionSequence.from_index_arrays(
        [3, 1, 2, 0], np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0])
    )
    assert len(sequence) == 4
    window = sequence.slice(1, 3)
    assert len(window) == 2
    sequence.index_arrays({0: 0, 1: 1, 2: 2, 3: 3})
    assert construction_counts["interactions"] == 0
    assert sequence[0] == Interaction(0, 1, 3)
    assert construction_counts["interactions"] == 5  # 4 built + 1 compared


def test_committed_prefix_len_does_not_materialise(construction_counts):
    from repro.adversaries.randomized import RandomizedAdversary

    prefix = RandomizedAdversary(list(range(6)), seed=4).committed_prefix(500)
    assert len(prefix) == 500
    assert construction_counts["interactions"] == 0


def test_self_loop_raises_at_construction():
    with pytest.raises(InvalidInteractionError, match="time 1 is a self-loop on 'b'"):
        InteractionSequence.from_index_arrays(
            ["a", "b", "c"], np.array([0, 1, 2]), np.array([1, 1, 0])
        )


@pytest.mark.parametrize(
    "nodes, i, j",
    [
        ([0, 1, 2], [0, 1], [1]),  # unequal lengths
        ([0, 1, 2], [[0, 1]], [[1, 2]]),  # not one-dimensional
        ([0, 1, 2], [0, 3], [1, 0]),  # index out of range
        ([0, 1, 2], [0, -1], [1, 0]),  # negative index
        ([0, 1, 1], [0, 1], [1, 2]),  # duplicate identifiers
    ],
)
def test_malformed_arrays_raise_at_construction(nodes, i, j):
    with pytest.raises(ValueError):
        InteractionSequence.from_index_arrays(nodes, np.array(i), np.array(j))


# --------------------------------------------------------------------- #
# Plan builders on arrays
# --------------------------------------------------------------------- #
@st.composite
def node_sets(draw, n):
    """All of ``0..n-1``, or any list over ``0..n+1`` (subsets, extras, repeats)."""
    return draw(
        st.one_of(
            st.just(list(range(n))),
            st.permutations(list(range(n))),
            st.lists(st.integers(0, n + 1), max_size=n + 2),
        )
    )


@common_settings
@given(data=interaction_sequences(min_nodes=2, max_nodes=7, min_len=0), query=st.data())
def test_bitset_gossip_equals_set_gossip(data, query):
    n, sequence = data
    nodes = query.draw(node_sets(n))
    expected = outcome(set_gossip_completion_time, sequence, nodes)
    assert outcome(gossip_completion_time, sequence, nodes) == expected
    labels = list(range(n))
    assert outcome(gossip_completion_time, dense_twin(sequence, labels), nodes) == expected


@common_settings
@given(data=interaction_sequences(min_nodes=2, max_nodes=7, min_len=0), query=st.data())
def test_convergecast_plan_equals_schedule_plan(data, query):
    n, sequence = data
    nodes = query.draw(node_sets(n))
    sink = query.draw(st.integers(0, n))
    start = query.draw(st.integers(0, len(sequence) + 2))
    expected = outcome(schedule_plan, sequence, nodes, sink, start)
    assert outcome(convergecast_plan, sequence, nodes, sink, start=start) == expected
    dense = dense_twin(sequence, list(range(n)))
    assert outcome(convergecast_plan, dense, nodes, sink, start=start) == expected


@pytest.mark.parametrize(
    "pairs, nodes, sink, start",
    [
        ([(0, 1), (1, 2)], [0, 1, 2], 0, 0),  # completes
        ([(0, 1), (1, 2)], [0, 1, 2], 0, 1),  # window never completes
        ([(1, 2), (0, 1)], [0, 1, 2], 0, 0),  # completes at the end
        ([(0, 1), (0, 1)], [0, 1], 0, 2),  # start at the end
        ([(0, 1)], [0, 1], 1, 5),  # start past the end
        ([(0, 1), (1, 0)], [0, 1], 0, 0),  # n = 2
        ([(0, 1), (1, 2), (0, 1)], [0, 1], 0, 0),  # a node outside `nodes`
        ([(2, 1), (0, 2)], [0, 1], 0, 0),  # relay outside `nodes`
        ([(0, 1), (0, 2)], [1, 2], 0, 0),  # sink outside `nodes`
    ],
)
def test_convergecast_plan_edge_cases(pairs, nodes, sink, start):
    sequence = InteractionSequence.from_pairs(pairs)
    expected = schedule_plan(sequence, nodes, sink, start)
    assert convergecast_plan(sequence, nodes, sink, start=start) == expected
    labels = list(range(1 + max(max(pair) for pair in pairs)))
    assert convergecast_plan(dense_twin(sequence, labels), nodes, sink, start=start) == expected


# --------------------------------------------------------------------- #
# Implicit complete G-bar
# --------------------------------------------------------------------- #
def test_complete_oracle_matches_explicit_edge_list():
    from itertools import combinations

    nodes = [4, 0, 3, 1]
    implicit = UnderlyingGraphKnowledge.complete(nodes)
    explicit = UnderlyingGraphKnowledge(nodes, edges=list(combinations(nodes, 2)))
    assert implicit.complete_nodes == frozenset(nodes)
    assert explicit.complete_nodes is None
    assert implicit.edge_set == explicit.edge_set
    graph = implicit.underlying_graph()
    assert list(graph.nodes) == nodes
    graph.remove_node(4)  # callers own the graph they get
    assert implicit.underlying_graph().number_of_edges() == 6
