"""The committed-block adversary protocol.

Committed adversaries fix their future independently of the algorithm's
decisions: the same object answers both the executor's ``interaction_at``
queries and the knowledge oracles' ``next_meeting`` queries, so ``meetTime``
and ``future`` are always consistent with the interactions the executor
replays.  This module hosts the machinery every such adversary shares —
uniform randomized (Section 4), non-uniform randomized (concluding remarks,
Q3), and the mobility families in :mod:`repro.adversaries.mobility`:

* committed draws stored as dense node-index numpy buffers with amortised
  O(1) growth (:meth:`CommittedBlockAdversary.draw_block`);
* fixed-chunk extension (:data:`COMMIT_CHUNK`) so the committed future for a
  given seed does not depend on the query pattern — single
  ``interaction_at`` calls, block reads from the vectorized engine, oracle
  extensions from ``next_meeting``, or parallel workers re-deriving the same
  trial all observe the same sequence;
* batched reads (:meth:`CommittedBlockAdversary.committed_index_block` and
  :meth:`CommittedBlockAdversary.committed_index_matrix`), which is what
  lets :class:`~repro.core.vector_execution.VectorizedExecutor` consume
  *any* committed adversary without per-interaction allocations;
* lazily built per-pair meeting indices backing ``next_meeting``.

Subclasses implement a single hook, :meth:`_sample_block`, which draws the
next ``k`` pairs of dense node indices.  Adversaries with a *finite*
committed future (trace replay) may return fewer than requested; the base
class then treats the future as exhausted.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.data import NodeId
from ..core.exceptions import ConfigurationError
from ..core.interaction import Interaction, InteractionSequence
from ..core.node import NetworkState
from .base import Adversary

#: Committed draws are extended in fixed chunks of this many interactions so
#: that the RNG stream is consumed identically regardless of the query
#: pattern (chunk boundaries never depend on *which* query forced growth).
#: The chunk is sized by the engine micro-benchmarks: large enough to
#: amortise per-chunk sampling overhead on long horizons (the n >= 100
#: sweeps draw hundreds of thousands of pairs), small enough that
#: oracle-driven scans (Waiting Greedy's meet tables) do not over-draw;
#: ``max_horizon`` still caps the waste on short runs.
COMMIT_CHUNK = 8192


class CommittedBlockAdversary(Adversary):
    """Base class for adversaries committing their future in index blocks.

    Args:
        nodes: the node set (must contain at least two nodes).
        max_horizon: safety cap on how far the committed future may be
            extended by oracle queries (``next_meeting`` returns None beyond
            it).  The executor's own horizon is handled separately through
            ``max_interactions``.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        max_horizon: int = 10_000_000,
    ) -> None:
        self._nodes: List[NodeId] = list(nodes)
        if len(self._nodes) < 2:
            raise ConfigurationError("need at least two nodes")
        self._index_of: Dict[NodeId, int] = {
            node: position for position, node in enumerate(self._nodes)
        }
        self._max_horizon = max_horizon
        # Committed draws, stored as dense node indices in doubling buffers
        # (amortised O(1) growth) plus a canonical pair code per interaction
        # used for vectorised meeting lookups.
        self._size = 0
        self._exhausted = False
        self._pi = np.empty(0, dtype=np.int64)
        self._pj = np.empty(0, dtype=np.int64)
        # Canonical pair codes are derived data used only by the per-pair
        # meeting index (``next_meeting``); they are computed lazily up to
        # ``_codes_size`` so block consumers that never query meetings (the
        # trial-vectorized engine) skip the work entirely.
        self._codes = np.empty(0, dtype=np.int64)
        self._codes_size = 0
        # Per-pair sorted list of meeting times, built lazily per queried
        # pair; the watermark records how much of the committed prefix the
        # pair's list already covers.
        self._meeting_index: Dict[int, List[int]] = {}
        self._meeting_watermark: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw the next ``k`` pairs, as dense node-index arrays.

        Adversaries with an infinite committed future return exactly ``k``
        pairs; finite ones (trace replay) may return fewer — the committed
        future is then considered exhausted.  Draws must be a pure function
        of the construction arguments and the number of pairs drawn so far,
        never of ``k``'s split across calls beyond chunk alignment.
        """
        raise NotImplementedError

    def _meeting_search_block(self, iu: int, iv: int) -> int:
        """How far to extend the future per ``next_meeting`` probe.

        Sized to the expected waiting time of a specific pair so the search
        cost is amortised; subclasses with skewed pair distributions
        override this with a per-pair estimate.
        """
        n = len(self._nodes)
        return max(COMMIT_CHUNK, n * n // 2)

    # ------------------------------------------------------------------ #
    # Committed-future machinery
    # ------------------------------------------------------------------ #
    def draw_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw and *commit* ``k`` more pairs, as dense node-index arrays.

        The drawn pairs are appended to the committed sequence (truncated at
        ``max_horizon``), so what this method returns is always exactly what
        the adversary will replay — drawing can never desynchronise the
        sampling state from the committed future.  Note that direct calls
        with arbitrary ``k`` change the chunk alignment relative to an
        adversary grown only through queries; the committed future stays
        internally consistent either way.  Finite adversaries may return
        fewer than ``k`` pairs (empty once exhausted).
        """
        k = min(k, self._max_horizon - self._size)
        if k <= 0 or self._exhausted:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        i, j = self._sample_block(k)
        count = i.shape[0]
        if count < k:
            self._exhausted = True
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        self._grow(count)
        start, stop = self._size, self._size + count
        self._pi[start:stop] = i
        self._pj[start:stop] = j
        self._size = stop
        return i, j

    def _grow(self, extra: int) -> None:
        """Ensure the buffers can hold ``extra`` more committed interactions."""
        needed = self._size + extra
        if needed <= self._pi.shape[0]:
            return
        capacity = max(needed, 2 * self._pi.shape[0], COMMIT_CHUNK)
        for name in ("_pi", "_pj"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=np.int64)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    def _codes_upto(self, stop: int) -> None:
        """Materialise canonical pair codes for the committed prefix."""
        if stop <= self._codes_size:
            return
        if self._codes.shape[0] < self._pi.shape[0]:
            grown = np.empty(self._pi.shape[0], dtype=np.int64)
            grown[: self._codes_size] = self._codes[: self._codes_size]
            self._codes = grown
        start = self._codes_size
        i = self._pi[start:stop]
        j = self._pj[start:stop]
        n = len(self._nodes)
        self._codes[start:stop] = np.minimum(i, j) * n + np.maximum(i, j)
        self._codes_size = stop

    def ensure_committed(self, length: int) -> None:
        """Extend the committed sequence to at least ``length`` interactions.

        Growth happens in fixed :data:`COMMIT_CHUNK` batches so the sampling
        state consumption — and therefore the committed future — does not
        depend on which query forced the growth.
        """
        if length > self._max_horizon:
            length = self._max_horizon
        if length > self._size:
            # One allocation for the whole extension instead of a doubling
            # reallocation per chunk.
            self._grow(length - self._size)
        while self._size < length and not self._exhausted:
            self.draw_block(COMMIT_CHUNK)

    @property
    def committed_length(self) -> int:
        """Number of interactions committed so far."""
        return self._size

    @property
    def future_exhausted(self) -> bool:
        """True once a finite committed future has been fully drawn."""
        return self._exhausted

    def committed_pair(self, time: int) -> Tuple[NodeId, NodeId]:
        """The committed pair at ``time`` (which must already be committed)."""
        return (
            self._nodes[int(self._pi[time])],
            self._nodes[int(self._pj[time])],
        )

    def committed_prefix(self, length: int) -> InteractionSequence:
        """The first ``length`` committed interactions as a sequence."""
        self.ensure_committed(length)
        length = min(length, self._size)
        nodes = self._nodes
        pairs = [
            (nodes[i], nodes[j])
            for i, j in zip(
                self._pi[:length].tolist(), self._pj[:length].tolist()
            )
        ]
        return InteractionSequence.from_pairs(pairs)

    def committed_index_block(
        self, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Committed pairs in ``[start, stop)`` as dense node-index arrays.

        Commits further draws as needed; the returned block is truncated at
        ``max_horizon`` (or at a finite future's end), so it may be shorter
        than requested — empty once the committed future is exhausted.  This
        is the batched alternative to per-interaction
        :meth:`interaction_at` calls.
        """
        self.ensure_committed(stop)
        stop = min(stop, self._size)
        if start >= stop:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._pi[start:stop], self._pj[start:stop]

    @classmethod
    def committed_index_matrix(
        cls,
        adversaries: Sequence["CommittedBlockAdversary"],
        start: int,
        stop,
        pad: int = -1,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack one committed block per adversary into ``(B, L)`` matrices.

        The trial-vectorized engine consumes a whole sweep cell of ``B``
        committed futures at once; this assembles, for the shared window
        starting at ``start``, the dense node-index matrices ``I`` and ``J``
        (one row per adversary) plus the per-row committed lengths.

        Args:
            adversaries: the cell's committed adversaries (or any objects
                implementing ``committed_index_block``), one per trial row.
            start: first interaction time of the window.
            stop: exclusive end of the window — an ``int`` shared by every
                row, or a per-row sequence (rows with ``stop <= start``
                contribute an empty row).
            pad: fill value for rows shorter than the widest (default -1,
                which no dense node index ever takes).

        Returns:
            ``(I, J, lengths)`` where ``I``/``J`` have shape ``(B, L)`` with
            ``L`` the widest row (0 when every row is empty) and
            ``lengths[b]`` is row ``b``'s committed count; entries beyond a
            row's length hold ``pad``.  A row shorter than requested means
            that adversary's committed future is exhausted (finite trace or
            ``max_horizon``).
        """
        count = len(adversaries)
        if isinstance(stop, (int, np.integer)):
            stops = [int(stop)] * count
        else:
            stops = [int(value) for value in stop]
            if len(stops) != count:
                raise ConfigurationError(
                    f"got {len(stops)} stops for {count} adversaries"
                )
        blocks = [
            adversary.committed_index_block(start, row_stop)
            if row_stop > start
            else (np.empty(0, dtype=np.int64),) * 2
            for adversary, row_stop in zip(adversaries, stops)
        ]
        lengths = np.array([i.shape[0] for i, _ in blocks], dtype=np.int64)
        width = int(lengths.max()) if count else 0
        matrix_i = np.full((count, width), pad, dtype=np.int64)
        matrix_j = np.full((count, width), pad, dtype=np.int64)
        for row, (i, j) in enumerate(blocks):
            matrix_i[row, : i.shape[0]] = i
            matrix_j[row, : j.shape[0]] = j
        return matrix_i, matrix_j, lengths

    # ------------------------------------------------------------------ #
    # InteractionProvider protocol
    # ------------------------------------------------------------------ #
    def interaction_at(
        self, time: int, state: NetworkState
    ) -> Optional[Interaction]:
        if time >= self._max_horizon:
            return None
        self.ensure_committed(time + 1)
        if time >= self._size:
            return None
        u, v = self.committed_pair(time)
        return Interaction(time=time, u=u, v=v)

    # ------------------------------------------------------------------ #
    # Committed-future queries (for knowledge oracles)
    # ------------------------------------------------------------------ #
    def _meeting_times(self, code: int) -> List[int]:
        """Sorted committed meeting times of the pair ``code``, up to date.

        The per-pair list is built (and later extended) by one vectorised
        scan of the committed suffix since the pair's watermark, so only
        pairs that are actually queried ever pay for indexing.
        """
        times = self._meeting_index.get(code)
        if times is None:
            times = []
            self._meeting_index[code] = times
            scanned = 0
        else:
            scanned = self._meeting_watermark.get(code, 0)
        if scanned < self._size:
            self._codes_upto(self._size)
            hits = np.nonzero(self._codes[scanned : self._size] == code)[0]
            if hits.size:
                times.extend((hits + scanned).tolist())
        self._meeting_watermark[code] = self._size
        return times

    def next_meeting(
        self, node: NodeId, peer: NodeId, after: int
    ) -> Optional[int]:
        """Next committed time ``> after`` at which ``{node, peer}`` interact.

        Extends the committed future (in blocks) until the meeting is found,
        the safety horizon is reached, or a finite future runs dry.
        """
        iu = self._index_of.get(node)
        iv = self._index_of.get(peer)
        if iu is None or iv is None or iu == iv:
            return None
        n = len(self._nodes)
        code = min(iu, iv) * n + max(iu, iv)
        while True:
            times = self._meeting_times(code)
            position = bisect_right(times, after)
            if position < len(times):
                return times[position]
            if self._size >= self._max_horizon or self._exhausted:
                return None
            self.ensure_committed(
                self._size + self._meeting_search_block(iu, iv)
            )

    def nodes(self) -> List[NodeId]:
        """The node set the adversary draws from."""
        return list(self._nodes)
