"""Committed mobility adversaries (the paper's motivating scenarios).

The paper motivates the interaction model with body-area sensors and cars in
a city, but analyses only the uniform randomized adversary; its concluding
remarks ask how realistic, skewed contact patterns change the Section 4
bounds.  This module turns the mobility *workloads* of
:mod:`repro.graph.traces` into first-class **adversaries**: objects that
commit to their future like :class:`~repro.adversaries.randomized.
RandomizedAdversary` does, so that

* the ``meetTime`` and ``future`` oracles answer consistently with the
  interactions the executor replays (``next_meeting`` over the committed
  future), and
* :class:`~repro.core.vector_execution.VectorizedExecutor` consumes them in
  numpy blocks through the shared committed-block protocol
  (:class:`~repro.adversaries.committed.CommittedBlockAdversary`).

Three families are provided:

* :class:`RandomWaypointAdversary` — nodes move in a unit square under the
  random-waypoint mobility model; every simulation step serialises the
  pairs within radio range into the paper's one-interaction-per-step model;
* :class:`CommunityAdversary` — a home-cell / community mixture: each
  interaction picks a node uniformly, which then meets a member of its own
  community with probability ``p_intra`` and a uniformly random other node
  otherwise (Zipf-style hubs emerge when community sizes are skewed);
* :class:`TraceReplayAdversary` — replays a recorded contact trace (an
  :class:`~repro.core.interaction.InteractionSequence`, a
  :class:`~repro.graph.dynamic_graph.DynamicGraph`, or a CSV file via
  :func:`repro.graph.trace_io.load_contact_csv`) as a finite committed
  future.

All draws are pure functions of the construction arguments, so two
adversaries built with the same parameters commit to the same sequence in
any process — the property the parallel sweep runner relies on.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.data import NodeId
from ..core.exceptions import ConfigurationError
from ..core.interaction import InteractionSequence
from ..graph.dynamic_graph import DynamicGraph
from .committed import CommittedBlockAdversary

__all__ = [
    "CommunityAdversary",
    "RandomWaypointAdversary",
    "TraceReplayAdversary",
]


class RandomWaypointAdversary(CommittedBlockAdversary):
    """Random-waypoint mobility in a unit square, committed as interactions.

    Nodes pick a random destination and speed, move towards it, and repeat.
    At every simulation step, each pair of nodes within ``radio_range`` is
    in contact; the step's contacts are serialised in a seeded random order
    (the standard reduction from evolving graphs to the paper's pairwise
    model).  ``static_node`` (typically the sink, modelling a collection
    point) is pinned at the centre of the arena.

    The mobility simulation advances in whole steps regardless of how the
    committed future is queried, so the committed sequence is a pure
    function of the construction arguments.

    Args:
        nodes: the node set.
        seed: RNG seed driving waypoints, speeds and serialisation order.
        radio_range: contact distance in the unit square.
        speed_range: per-leg speed drawn uniformly from this interval.
        static_node: optional node pinned at (0.5, 0.5); None moves all.
        max_horizon: safety cap on the committed future.
        max_idle_steps: raise if this many consecutive steps produce no
            contact (a sign the radio range is too small to ever connect).
    """

    family = "mobility"

    def __init__(
        self,
        nodes: Sequence[NodeId],
        seed: Optional[int] = None,
        radio_range: float = 0.18,
        speed_range: Tuple[float, float] = (0.02, 0.06),
        static_node: Optional[NodeId] = None,
        max_horizon: int = 10_000_000,
        max_idle_steps: int = 100_000,
    ) -> None:
        super().__init__(nodes, max_horizon=max_horizon)
        if radio_range <= 0:
            raise ConfigurationError("radio_range must be positive")
        low, high = speed_range
        if low <= 0 or high < low:
            raise ConfigurationError(
                f"speed_range must satisfy 0 < low <= high, got {speed_range}"
            )
        if static_node is not None and static_node not in self._index_of:
            raise ConfigurationError(
                f"static_node {static_node!r} is not one of the nodes"
            )
        self._radio_range = float(radio_range)
        self._speed_range = (float(low), float(high))
        self._max_idle_steps = max_idle_steps
        self._rng = np.random.Generator(np.random.PCG64(seed))
        n = len(self._nodes)
        self._positions = self._rng.random((n, 2))
        self._destinations = self._rng.random((n, 2))
        self._speeds = self._rng.uniform(low, high, size=n)
        self._static_index: Optional[int] = None
        if static_node is not None:
            index = self._index_of[static_node]
            self._static_index = index
            self._positions[index] = (0.5, 0.5)
            self._destinations[index] = (0.5, 0.5)
            self._speeds[index] = 0.0
        # FIFO buffer of drawn-but-uncommitted contacts (whole steps are
        # simulated at once; _sample_block serves them k at a time).
        self._buffer_i: List[int] = []
        self._buffer_j: List[int] = []
        self._buffer_head = 0

    # ------------------------------------------------------------------ #
    def _advance(self) -> None:
        """Move every node one step towards its destination, vectorised."""
        delta = self._destinations - self._positions
        distance = np.hypot(delta[:, 0], delta[:, 1])
        arrived = distance <= self._speeds
        moving = ~arrived
        if np.any(moving):
            ratio = self._speeds[moving] / distance[moving]
            self._positions[moving] += delta[moving] * ratio[:, None]
        if np.any(arrived):
            self._positions[arrived] = self._destinations[arrived]
            count = int(arrived.sum())
            self._destinations[arrived] = self._rng.random((count, 2))
            self._speeds[arrived] = self._rng.uniform(
                *self._speed_range, size=count
            )
        if self._static_index is not None:
            index = self._static_index
            self._positions[index] = (0.5, 0.5)
            self._destinations[index] = (0.5, 0.5)
            self._speeds[index] = 0.0

    def _step_contacts(self) -> Tuple[np.ndarray, np.ndarray]:
        """All pairs currently within radio range, in seeded random order."""
        diff = self._positions[:, None, :] - self._positions[None, :, :]
        within = np.hypot(diff[..., 0], diff[..., 1]) <= self._radio_range
        i, j = np.nonzero(np.triu(within, k=1))
        if i.size > 1:
            order = self._rng.permutation(i.size)
            i, j = i[order], j[order]
        return i.astype(np.int64), j.astype(np.int64)

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        idle = 0
        while len(self._buffer_i) - self._buffer_head < k:
            self._advance()
            i, j = self._step_contacts()
            if i.size == 0:
                idle += 1
                if idle > self._max_idle_steps:
                    raise ConfigurationError(
                        f"no contact in {self._max_idle_steps} consecutive "
                        "mobility steps; increase radio_range or node count"
                    )
                continue
            idle = 0
            self._buffer_i.extend(i.tolist())
            self._buffer_j.extend(j.tolist())
        head = self._buffer_head
        block_i = np.array(self._buffer_i[head : head + k], dtype=np.int64)
        block_j = np.array(self._buffer_j[head : head + k], dtype=np.int64)
        self._buffer_head += k
        if self._buffer_head > 1_000_000:
            # Compact the served prefix so the buffer does not grow forever.
            del self._buffer_i[: self._buffer_head]
            del self._buffer_j[: self._buffer_head]
            self._buffer_head = 0
        return block_i, block_j


class CommunityAdversary(CommittedBlockAdversary):
    """Home-cell / community mobility as a committed mixture distribution.

    Every interaction picks an initiating node uniformly at random; with
    probability ``p_intra`` the partner is a uniformly random member of the
    initiator's home community, otherwise a uniformly random other node.
    With ``communities=1`` (or ``p_intra=0``) this degenerates to the
    uniform randomized adversary; larger community counts model the strong
    locality of human and vehicular contact traces.

    Nodes are assigned to homes round-robin (node ``i`` lives in community
    ``i % communities``), which keeps the assignment a deterministic
    function of the node order.

    Args:
        nodes: the node set.
        communities: number of home cells (defaults to ``ceil(sqrt(n))``).
        p_intra: probability that an interaction stays within the
            initiator's community (given the community has another member).
        seed: RNG seed.
        max_horizon: safety cap on the committed future.
    """

    family = "mobility"

    def __init__(
        self,
        nodes: Sequence[NodeId],
        communities: Optional[int] = None,
        p_intra: float = 0.8,
        seed: Optional[int] = None,
        max_horizon: int = 10_000_000,
    ) -> None:
        super().__init__(nodes, max_horizon=max_horizon)
        n = len(self._nodes)
        if communities is None:
            communities = max(1, int(np.ceil(np.sqrt(n))))
        if communities < 1 or communities > n:
            raise ConfigurationError(
                f"communities must be in 1..{n}, got {communities}"
            )
        if not 0.0 <= p_intra <= 1.0:
            raise ConfigurationError(
                f"p_intra must be a probability, got {p_intra}"
            )
        self._communities = int(communities)
        self._p_intra = float(p_intra)
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._home = np.arange(n, dtype=np.int64) % self._communities
        # members[c] lists the dense indices living in community c, so an
        # intra-community draw is one bounded integer plus a gather.
        members = [
            np.nonzero(self._home == c)[0].astype(np.int64)
            for c in range(self._communities)
        ]
        sizes = np.array([m.size for m in members], dtype=np.int64)
        offsets = np.zeros(self._communities, dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        self._members_flat = np.concatenate(members)
        self._community_size = sizes
        self._community_offset = offsets
        self._position_in_community = np.empty(n, dtype=np.int64)
        for c, member in enumerate(members):
            self._position_in_community[member] = np.arange(member.size)

    def community_of(self, node: NodeId) -> int:
        """The home community of ``node``."""
        return int(self._home[self._index_of[node]])

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        n = len(self._nodes)
        i = self._rng.integers(0, n, size=k)
        stay = self._rng.random(size=k) < self._p_intra
        home = self._home[i]
        size = self._community_size[home]
        # Singleton communities cannot host an intra contact.
        stay &= size > 1
        # Both partner draws consume RNG for every position so the stream
        # shape never depends on the data-dependent intra/inter split.
        intra_raw = self._rng.integers(0, np.maximum(size - 1, 1), size=k)
        inter_raw = self._rng.integers(0, n - 1, size=k)
        position = self._position_in_community[i]
        intra_raw += intra_raw >= position
        # The gather evaluates for masked-out (inter / singleton) entries
        # too, so clamp their index in-bounds; np.where discards the value.
        intra = self._members_flat[
            self._community_offset[home] + np.minimum(intra_raw, size - 1)
        ]
        inter = inter_raw + (inter_raw >= i)
        j = np.where(stay, intra, inter)
        return i, j


class TraceReplayAdversary(CommittedBlockAdversary):
    """Replay a recorded contact trace as a finite committed future.

    Accepts an :class:`~repro.core.interaction.InteractionSequence`, a
    :class:`~repro.graph.dynamic_graph.DynamicGraph` (whose node set and
    order are preserved), or — via :meth:`from_csv` — a ``time,u,v`` CSV
    contact log.  The committed future is exactly the trace: once it is
    exhausted, ``interaction_at`` returns None and ``next_meeting`` answers
    None for meetings beyond the trace, so the ``meetTime``/``future``
    oracles degrade exactly like they do on a finite committed sequence.

    Args:
        trace: the contact trace to replay.
        nodes: optional explicit node set (may be a superset of the nodes
            appearing in the trace, e.g. to include nodes that never
            interact); defaults to the trace's nodes.
        max_horizon: optional cap replaying only a prefix of the trace.
    """

    family = "mobility"

    def __init__(
        self,
        trace: Union[InteractionSequence, DynamicGraph],
        nodes: Optional[Sequence[NodeId]] = None,
        max_horizon: int = 10_000_000,
    ) -> None:
        if isinstance(trace, DynamicGraph):
            sequence = trace.sequence
            if nodes is None:
                nodes = list(trace.nodes)
        elif isinstance(trace, InteractionSequence):
            sequence = trace
        else:
            raise ConfigurationError(
                "trace must be an InteractionSequence or a DynamicGraph, "
                f"got {type(trace).__name__}"
            )
        if nodes is None:
            nodes = sorted(sequence.nodes(), key=repr)
        super().__init__(nodes, max_horizon=max_horizon)
        missing = sequence.nodes() - set(self._nodes)
        if missing:
            raise ConfigurationError(
                f"trace references nodes outside the declared node set: "
                f"{sorted(map(repr, missing))}"
            )
        self._trace_i = np.array(
            [self._index_of[interaction.u] for interaction in sequence],
            dtype=np.int64,
        )
        self._trace_j = np.array(
            [self._index_of[interaction.v] for interaction in sequence],
            dtype=np.int64,
        )

    @classmethod
    def from_dense_indices(
        cls,
        i: np.ndarray,
        j: np.ndarray,
        nodes: Sequence[NodeId],
        max_horizon: int = 10_000_000,
    ) -> "TraceReplayAdversary":
        """Build a replay adversary directly from dense node-index arrays.

        ``i``/``j`` are positions into ``nodes`` (the same dense encoding the
        committed buffers and the batched engines use), so this constructor
        skips the per-interaction :class:`~repro.core.interaction.
        InteractionSequence` round trip entirely — the adversarial search
        loop scores thousands of mutated schedules through this path.  The
        arrays are copied and validated (same length, indices in range,
        no self-interactions).

        Raises:
            ConfigurationError: if the arrays are malformed.
        """
        trace_i = np.ascontiguousarray(i, dtype=np.int64)
        trace_j = np.ascontiguousarray(j, dtype=np.int64)
        if trace_i.ndim != 1 or trace_j.ndim != 1:
            raise ConfigurationError("index arrays must be one-dimensional")
        if trace_i.shape[0] != trace_j.shape[0]:
            raise ConfigurationError(
                f"index arrays disagree on length: {trace_i.shape[0]} vs "
                f"{trace_j.shape[0]}"
            )
        n = len(nodes)
        if trace_i.size:
            low = min(int(trace_i.min()), int(trace_j.min()))
            high = max(int(trace_i.max()), int(trace_j.max()))
            if low < 0 or high >= n:
                raise ConfigurationError(
                    f"dense indices must lie in [0, {n}), found [{low}, {high}]"
                )
            if bool(np.any(trace_i == trace_j)):
                raise ConfigurationError("self-interactions are not allowed")
        adversary = cls.__new__(cls)
        CommittedBlockAdversary.__init__(adversary, nodes, max_horizon=max_horizon)
        adversary._trace_i = trace_i.copy()
        adversary._trace_j = trace_j.copy()
        return adversary

    @classmethod
    def from_csv(
        cls,
        path: Union[str, Path],
        sink: NodeId,
        delimiter: str = ",",
        nodes: Optional[Sequence[NodeId]] = None,
        max_horizon: int = 10_000_000,
    ) -> "TraceReplayAdversary":
        """Load a ``time,u,v`` contact CSV and replay it (see ``trace_io``)."""
        from ..graph.trace_io import load_contact_csv

        graph = load_contact_csv(path, sink, delimiter=delimiter, nodes=nodes)
        return cls(graph, max_horizon=max_horizon)

    @property
    def trace_length(self) -> int:
        """Total number of interactions in the replayed trace."""
        return int(self._trace_i.shape[0])

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        start = self._size
        stop = min(start + k, self.trace_length)
        return self._trace_i[start:stop], self._trace_j[start:stop]
