"""Pairwise interactions and interaction sequences.

The paper models a dynamic graph as a couple ``(V, I)`` where ``I`` is a
sequence of *pairwise interactions*; the index of an interaction in the
sequence is its time of occurrence.  This module provides:

* :class:`Interaction` — an unordered pair of distinct nodes plus its time;
* :class:`InteractionSequence` — a finite sequence of interactions indexed by
  time ``0, 1, 2, ...`` with convenience queries (footprint, meetings with a
  node, slicing, concatenation, repetition).  A sequence is either built
  from interaction objects or stored as dense node-index arrays
  (:meth:`InteractionSequence.from_index_arrays`, the form committed
  adversaries hand out), in which case the objects are built only on the
  first object-level access.

Infinite sequences (used by impossibility constructions) are represented by
adversaries that generate interactions on demand; see
:mod:`repro.adversaries`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .data import NodeId
from .exceptions import InvalidInteractionError


@dataclass(frozen=True, order=True)
class Interaction:
    """A single pairwise interaction ``I_t = {u, v}`` occurring at time ``t``.

    The pair is unordered; ``u`` and ``v`` are stored in a canonical order
    (sorted by ``repr`` of the identifier) so that equality and hashing do
    not depend on argument order.
    """

    time: int
    u: NodeId
    v: NodeId

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise InvalidInteractionError(
                f"interaction at time {self.time} is a self-loop on {self.u!r}"
            )
        if self.time < 0:
            raise InvalidInteractionError(
                f"interaction time must be non-negative, got {self.time}"
            )
        a, b = _canonical_pair(self.u, self.v)
        object.__setattr__(self, "u", a)
        object.__setattr__(self, "v", b)

    @property
    def pair(self) -> FrozenSet[NodeId]:
        """The unordered pair of interacting nodes."""
        return frozenset((self.u, self.v))

    def involves(self, node: NodeId) -> bool:
        """Return True if ``node`` takes part in this interaction."""
        return node == self.u or node == self.v

    def other(self, node: NodeId) -> NodeId:
        """Return the peer of ``node`` in this interaction.

        Raises:
            InvalidInteractionError: if ``node`` is not part of the interaction.
        """
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise InvalidInteractionError(
            f"node {node!r} is not part of interaction {self}"
        )

    def at_time(self, time: int) -> "Interaction":
        """Return a copy of this interaction re-stamped at ``time``."""
        return Interaction(time=time, u=self.u, v=self.v)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"I_{self.time}={{{self.u!r},{self.v!r}}}"


def _canonical_pair(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Order a pair of node identifiers deterministically."""
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class InteractionSequence:
    """A finite sequence of interactions, indexed by time.

    The time of the ``i``-th interaction is exactly ``i`` (as in the paper);
    the constructor re-stamps interactions accordingly unless
    ``keep_times=True`` is passed and the provided times already form the
    range ``0..len-1``.
    """

    def __init__(
        self,
        interactions: Iterable[Interaction | Tuple[NodeId, NodeId]],
        keep_times: bool = False,
    ) -> None:
        items: List[Interaction] = []
        for index, item in enumerate(interactions):
            if isinstance(item, Interaction):
                interaction = item if keep_times else item.at_time(index)
            else:
                u, v = item
                interaction = Interaction(time=index, u=u, v=v)
            items.append(interaction)
        if keep_times:
            for index, interaction in enumerate(items):
                if interaction.time != index:
                    raise InvalidInteractionError(
                        "keep_times=True requires times to equal indices; "
                        f"index {index} has time {interaction.time}"
                    )
        self._items: Tuple[Interaction, ...] = tuple(items)
        self._meetings_cache: Dict[NodeId, Tuple[int, ...]] = {}
        self._pair_times: Optional[Dict[FrozenSet[NodeId], List[int]]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[NodeId, NodeId]]
    ) -> "InteractionSequence":
        """Build a sequence from an iterable of unordered pairs."""
        return cls(pairs)

    @staticmethod
    def from_index_arrays(
        nodes: Sequence[NodeId], i: np.ndarray, j: np.ndarray
    ) -> "InteractionSequence":
        """The sequence ``I_t = {nodes[i[t]], nodes[j[t]]}``, kept as arrays.

        The arrays are validated here, in numpy: equal lengths, indices in
        ``range(len(nodes))`` and no self-loops.  The sequence holds
        read-only views of them and builds its :class:`Interaction` objects
        only on the first object-level access (iteration, indexing,
        equality, :attr:`pairs`, ...); ``len``, :meth:`slice` and
        :meth:`index_arrays` never build them.

        Raises:
            ValueError: on duplicate ``nodes``, arrays that are not
                one-dimensional and of equal length, or an index out of
                range.
            InvalidInteractionError: on a self-loop.
        """
        return _IndexArraySequence(nodes, i, j)

    @classmethod
    def empty(cls) -> "InteractionSequence":
        """The empty sequence."""
        return cls(())

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Interaction:
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionSequence):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InteractionSequence(len={len(self)})"

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def pairs(self) -> List[Tuple[NodeId, NodeId]]:
        """The sequence as a list of ``(u, v)`` pairs in canonical order."""
        return [(i.u, i.v) for i in self._items]

    def nodes(self) -> Set[NodeId]:
        """All nodes appearing in at least one interaction."""
        found: Set[NodeId] = set()
        for interaction in self._items:
            found.add(interaction.u)
            found.add(interaction.v)
        return found

    def footprint_edges(self) -> Set[FrozenSet[NodeId]]:
        """Edges of the underlying graph (pairs interacting at least once)."""
        return {interaction.pair for interaction in self._items}

    def meetings_with(self, node: NodeId) -> Tuple[int, ...]:
        """Times at which ``node`` takes part in an interaction (ascending)."""
        cached = self._meetings_cache.get(node)
        if cached is None:
            cached = tuple(
                interaction.time
                for interaction in self._items
                if interaction.involves(node)
            )
            self._meetings_cache[node] = cached
        return cached

    def _pair_index(self) -> Dict[FrozenSet[NodeId], List[int]]:
        """Per-pair sorted meeting times, built once on first use.

        Mirrors ``RandomizedAdversary._meeting_index`` so that repeated
        ``meetTime`` queries cost O(log T) each instead of re-scanning the
        tail of the sequence (O(T) per query, O(T²) per committed-sequence
        run).
        """
        index = self._pair_times
        if index is None:
            index = {}
            for interaction in self._items:
                index.setdefault(interaction.pair, []).append(interaction.time)
            self._pair_times = index
        return index

    def next_meeting(
        self, node: NodeId, peer: NodeId, after: int
    ) -> Optional[int]:
        """Smallest time ``t' > after`` with ``I_{t'} = {node, peer}``.

        Returns None if the pair never interacts after ``after`` within this
        finite sequence.
        """
        times = self._pair_index().get(frozenset((node, peer)))
        if not times:
            return None
        position = bisect_right(times, after)
        if position < len(times):
            return times[position]
        return None

    def count_pair(self, u: NodeId, v: NodeId) -> int:
        """Number of occurrences of the interaction ``{u, v}``."""
        return len(self._pair_index().get(frozenset((u, v)), ()))

    def index_arrays(
        self, index_of: Mapping[NodeId, int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs as int64 arrays of dense indices, ``index_of[node]`` each.

        The pairs are **unordered**: ``(i[t], j[t])`` names the two nodes of
        ``I_t`` in either order, so consumers must not read a direction
        into it.  A sequence stored as index arrays whose nodes sit at their
        own positions in ``index_of`` returns its read-only arrays without
        copying.

        Raises:
            KeyError: if the sequence mentions a node outside ``index_of``.
        """
        items = self._items
        return (
            np.fromiter((index_of[x.u] for x in items), np.int64, len(items)),
            np.fromiter((index_of[x.v] for x in items), np.int64, len(items)),
        )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def slice(self, start: int, stop: Optional[int] = None) -> "InteractionSequence":
        """The subsequence of interactions with times in ``[start, stop)``.

        Times are re-stamped to start at 0 so the result is itself a valid
        sequence.
        """
        stop = len(self) if stop is None else min(stop, len(self))
        return InteractionSequence(self._items[start:stop])

    def window(self, start: int, stop: int) -> Sequence[Interaction]:
        """The raw interactions with original times in ``[start, stop)``."""
        return self._items[start:stop]

    def concat(self, other: "InteractionSequence") -> "InteractionSequence":
        """This sequence followed by ``other`` (times re-stamped)."""
        return InteractionSequence(list(self._items) + list(other._items))

    def repeat(self, times: int) -> "InteractionSequence":
        """This sequence repeated ``times`` times (times re-stamped)."""
        if times < 0:
            raise ValueError("repeat count must be non-negative")
        return InteractionSequence(list(self._items) * times)

    def reversed(self) -> "InteractionSequence":
        """The sequence with interaction order reversed (times re-stamped).

        Used by the broadcast/convergecast duality of Theorem 8.
        """
        return InteractionSequence(reversed(self._items))


class _IndexArraySequence(InteractionSequence):
    """:meth:`InteractionSequence.from_index_arrays`'s array-backed form.

    ``_items``, which every object-level query reads, is built on first
    use; ``len``, ``slice`` and ``index_arrays`` are answered from the
    arrays.
    """

    def __init__(
        self, nodes: Sequence[NodeId], i: np.ndarray, j: np.ndarray
    ) -> None:
        node_tuple = tuple(nodes)
        if len(set(node_tuple)) != len(node_tuple):
            raise ValueError("node identifiers must be unique")
        i = np.asarray(i, dtype=np.int64).view()
        j = np.asarray(j, dtype=np.int64).view()
        if i.ndim != 1 or i.shape != j.shape:
            raise ValueError(
                f"index arrays must be one-dimensional and of equal length, "
                f"got shapes {i.shape} and {j.shape}"
            )
        if i.size:
            low = min(int(i.min()), int(j.min()))
            high = max(int(i.max()), int(j.max()))
            if low < 0 or high >= len(node_tuple):
                raise ValueError(
                    f"node index out of range(0, {len(node_tuple)}): "
                    f"{low if low < 0 else high}"
                )
            loops = np.flatnonzero(i == j)
            if loops.size:
                time = int(loops[0])
                raise InvalidInteractionError(
                    f"interaction at time {time} is a self-loop on "
                    f"{node_tuple[int(i[time])]!r}"
                )
        i.flags.writeable = False
        j.flags.writeable = False
        self._nodes = node_tuple
        self._i = i
        self._j = j
        self._meetings_cache = {}
        self._pair_times = None

    @cached_property
    def _items(self) -> Tuple[Interaction, ...]:  # type: ignore[override]
        nodes = self._nodes
        return tuple(
            Interaction(time=time, u=nodes[a], v=nodes[b])
            for time, (a, b) in enumerate(zip(self._i.tolist(), self._j.tolist()))
        )

    def __len__(self) -> int:
        return int(self._i.shape[0])

    def slice(self, start: int, stop: Optional[int] = None) -> "InteractionSequence":
        stop = len(self) if stop is None else min(stop, len(self))
        return _IndexArraySequence(
            self._nodes, self._i[start:stop], self._j[start:stop]
        )

    def index_arrays(
        self, index_of: Mapping[NodeId, int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        table = [index_of.get(node, -1) for node in self._nodes]
        if table == list(range(len(table))):
            return self._i, self._j
        lookup = np.asarray(table, dtype=np.int64)
        i, j = lookup[self._i], lookup[self._j]
        missing = np.flatnonzero((i < 0) | (j < 0))
        if missing.size:
            time = int(missing[0])
            side = self._i if i[time] < 0 else self._j
            raise KeyError(self._nodes[int(side[time])])
        return i, j
