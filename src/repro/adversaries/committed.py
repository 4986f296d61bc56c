"""The committed-block adversary protocol.

Committed adversaries fix their future independently of the algorithm's
decisions: the same object answers both the executor's ``interaction_at``
queries and the knowledge oracles' ``next_meeting`` queries, so ``meetTime``
and ``future`` are always consistent with the interactions the executor
replays.  This module hosts the machinery every such adversary shares —
uniform randomized (Section 4), non-uniform randomized (concluding remarks,
Q3), and the mobility families in :mod:`repro.adversaries.mobility`:

* committed draws stored as int32 dense node-index numpy buffers with
  amortised O(1) growth (:meth:`CommittedBlockAdversary.draw_block`); the
  buffers hold only the retained window of the committed future, since a
  consumer that is done with the past may drop it
  (:meth:`CommittedBlockAdversary.release_before`);
* fixed-chunk extension (:data:`COMMIT_CHUNK`) so the committed future for a
  given seed does not depend on the query pattern — single
  ``interaction_at`` calls, block reads from the vectorized engine, oracle
  extensions from ``next_meeting``, or parallel workers re-deriving the same
  trial all observe the same sequence;
* batched reads (:meth:`CommittedBlockAdversary.committed_index_block` and
  :meth:`CommittedBlockAdversary.committed_index_matrix`), which is what
  lets :class:`~repro.core.vector_execution.VectorizedExecutor` consume
  *any* committed adversary without per-interaction allocations;
* lazily built per-pair meeting indices backing ``next_meeting``;
* lookahead copies (:meth:`CommittedBlockAdversary.lookahead`), which draw
  the future past the committed frontier for a reader that scans far ahead
  of the consumer, without committing it to the adversary's buffers;
* consuming meeting reads (:meth:`CommittedBlockAdversary.take_meetings`),
  which keep only one node's interactions of a window and release the
  rest, for readers that need nothing else (Waiting, the sink's star tree
  and Waiting Greedy's meet table).

Subclasses implement one hook, :meth:`_sample_block`, which draws the
next ``k`` pairs of dense node indices, and name the attributes it advances
in ``_sampler_fields``.  Adversaries with a *finite* committed future (trace
replay) may return fewer than requested; the base class then treats the
future as exhausted.  A family whose draws can skip most of the work for
pairs a meeting read drops also implements :meth:`_sample_meetings`.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

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
#: sweeps draw hundreds of thousands of pairs), small enough that a
#: trial's committed prefix does not run far past its consumer;
#: ``max_horizon`` still caps the waste on short runs.  Scans that run far
#: ahead (Waiting Greedy's meet tables) read a lookahead copy through
#: ``take_meetings``, so they hold at most one chunk of that scan, not all
#: of it.
COMMIT_CHUNK = 8192

#: At most this many pairs (four chunks) go to one
#: :meth:`CommittedBlockAdversary._sample_meetings` call.  The uniform
#: adversary draws their raw words at once (256 KiB, plus as much
#: scratch).  On a 2-vCPU x86_64 VM (glibc, numpy 2.4) a draw cost about
#: 7.9, 6.2 and 5.3 ns per pair at one, two and four chunks, but 10-14 ns
#: at eight or sixteen, whose buffers the allocator returns to the system
#: and faults back in on every call.
MEETING_DRAW_PAIRS = 4 * COMMIT_CHUNK

_Self = TypeVar("_Self", bound="CommittedBlockAdversary")


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
        # Committed draws, stored as int32 dense node indices.  The buffers
        # hold the retained window [_base, _size) of absolute times (slot 0
        # is time _base); ``_size`` stays the absolute committed count.
        # release_before raises ``_floor``, and the next growth drops
        # [_base, _floor) by copying the live suffix into fresh buffers —
        # never in place, since committed_index_block hands out views.
        self._size = 0
        self._base = 0
        self._floor = 0
        self._exhausted = False
        self._pi = np.empty(0, dtype=np.int32)
        self._pj = np.empty(0, dtype=np.int32)
        # Canonical pair codes are derived data used only by the per-pair
        # meeting index (``next_meeting``); they are computed lazily up to
        # absolute time ``_codes_size``, aligned with the index buffers, so
        # block consumers that never query meetings (the trial-vectorized
        # engine) skip the work entirely.  Codes are int64: n * n overflows
        # int32 above n = 46,340.
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
    #: The attributes :meth:`_sample_block` advances.  A :meth:`lookahead`
    #: copy gets its own deep copies of them and shares every other
    #: attribute, which the sampler only reads.
    _sampler_fields: Tuple[str, ...] = ()

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw the next ``k`` pairs, as dense node-index arrays.

        Adversaries with an infinite committed future return exactly ``k``
        pairs; finite ones (trace replay) may return fewer — the committed
        future is then considered exhausted.  Draws must be a pure function
        of the construction arguments and the number of pairs drawn so far,
        never of ``k``'s split across calls beyond chunk alignment.
        """
        raise NotImplementedError

    def _sample_meetings(
        self, k: int, node: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Draw the next ``k`` pairs, keeping only those of ``node``.

        ``k`` covers whole chunks from the committed frontier: chunks of
        :data:`COMMIT_CHUNK` pairs, the last one shorter only where
        ``max_horizon`` cuts it.  A family that can draw them more cheaply
        than :meth:`_sample_block` when most are dropped returns
        ``(offsets, i, j)``: the offsets into the ``k`` pairs (ascending,
        int64) of the pairs involving dense index ``node``, and their int32
        endpoints, exactly as ``_sample_block`` would have drawn them chunk
        by chunk, with the sampler state advanced as far.  The default
        draws nothing and returns None, and the base class commits and
        reads the chunks instead.
        """
        return None

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
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        i, j = self._sample_block(k)
        count = i.shape[0]
        if count < k:
            self._exhausted = True
        if count == 0:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        self._grow(count)
        start = self._size - self._base
        # The int32 buffers cast samplers that draw int64.
        self._pi[start : start + count] = i
        self._pj[start : start + count] = j
        self._size += count
        return i, j

    def _grow(self, extra: int) -> None:
        """Ensure the buffers can hold ``extra`` more committed interactions.

        Reallocation drops the released past: the new buffers receive only
        the live suffix ``[floor, size)`` and are sized from it (at least
        twice it, so growth stays amortised O(1)), not from the whole
        committed history.
        """
        if self._size - self._base + extra <= self._pi.shape[0]:
            return
        live = self._size - self._floor
        capacity = max(live + extra, 2 * live, COMMIT_CHUNK)
        start = self._floor - self._base
        for name in ("_pi", "_pj"):
            new = np.empty(capacity, dtype=np.int32)
            new[:live] = getattr(self, name)[start : start + live]
            setattr(self, name, new)
        if self._floor > self._base:
            self._base = self._floor
            # Pair codes are re-derived from the new base on demand.
            self._codes = np.empty(0, dtype=np.int64)
            self._codes_size = self._base

    def _codes_upto(self, stop: int) -> None:
        """Materialise canonical pair codes for the retained window up to ``stop``."""
        if stop <= self._codes_size:
            return
        done = self._codes_size - self._base
        if self._codes.shape[0] < self._pi.shape[0]:
            grown = np.empty(self._pi.shape[0], dtype=np.int64)
            grown[:done] = self._codes[:done]
            self._codes = grown
        end = stop - self._base
        i = self._pi[done:end].astype(np.int64)
        j = self._pj[done:end].astype(np.int64)
        n = len(self._nodes)
        self._codes[done:end] = np.minimum(i, j) * n + np.maximum(i, j)
        self._codes_size = stop

    def _require_retained(self, time: int) -> None:
        """Raise unless committed time ``time`` is still readable."""
        if time < self._floor:
            raise ConfigurationError(
                f"committed time {time} was released: the adversary keeps "
                f"only times from {self._floor} on (see release_before)"
            )

    def release_before(self, time: int) -> None:
        """Let the committed interactions before ``time`` go.

        From now on a read of any committed time below the floor raises
        :class:`~repro.core.exceptions.ConfigurationError`, naming the
        time.  The floor only rises, and never past the committed length;
        the committed future itself is unchanged.  Memory is reclaimed
        lazily, by the next buffer growth.  The vectorized engine calls
        this before each next block of a trial, unless a later trial of the
        same batch reads this adversary too.
        """
        self._floor = max(self._floor, min(int(time), self._size))

    def lookahead(self: _Self) -> _Self:
        """A copy that draws this adversary's future without committing it here.

        The copy starts at the committed frontier with empty buffers and
        keeps absolute times: its time ``t`` is this adversary's time ``t``,
        and since both grow through the chunk-aligned
        :meth:`ensure_committed`, reading it draws exactly the chunks this
        adversary would commit next.  Reads below the frontier raise, as
        released times do.  Nothing the copy draws reaches this adversary,
        so a lookahead can never change the committed future.  The copy
        deep-copies only the sampler state (``_sampler_fields``) and shares
        the node list, the index map and every read-only table; release
        what it has read with :meth:`release_before`.
        """
        fork = copy.copy(self)
        for name in self._sampler_fields:
            setattr(fork, name, copy.deepcopy(getattr(self, name)))
        fork._drop_buffers()
        fork._meeting_index = {}
        fork._meeting_watermark = {}
        return fork

    def _drop_buffers(self) -> None:
        """Release the whole committed past: empty buffers from ``_size`` on.

        The buffers are replaced, not emptied in place, so views handed out
        earlier stay valid.
        """
        self._base = self._floor = self._size
        self._pi = self._pj = np.empty(0, dtype=np.int32)
        self._codes = np.empty(0, dtype=np.int64)
        self._codes_size = self._size

    def ensure_committed(self, length: int) -> None:
        """Extend the committed sequence to at least ``length`` interactions.

        Growth happens in fixed :data:`COMMIT_CHUNK` batches so the sampling
        state consumption — and therefore the committed future — does not
        depend on which query forced the growth.
        """
        if length > self._max_horizon:
            length = self._max_horizon
        if length > self._size and not self._exhausted:
            # One allocation for the whole chunk-aligned extension instead
            # of a doubling reallocation per chunk.
            chunks = -(-(length - self._size) // COMMIT_CHUNK)
            self._grow(
                min(chunks * COMMIT_CHUNK, self._max_horizon - self._size)
            )
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
        self._require_retained(time)
        offset = time - self._base
        return (
            self._nodes[int(self._pi[offset])],
            self._nodes[int(self._pj[offset])],
        )

    def committed_prefix(self, length: int) -> InteractionSequence:
        """The first ``length`` committed interactions as a sequence.

        The sequence is backed by int64 copies of the committed index
        buffers (:meth:`InteractionSequence.from_index_arrays`): the
        interaction objects are built only if an object-level reader asks
        for them.  Raises :class:`~repro.core.exceptions.ConfigurationError`
        once the committed past has been released.
        """
        if length > 0:
            self._require_retained(0)
        self.ensure_committed(length)
        length = min(length, self._size)
        return InteractionSequence.from_index_arrays(
            self._nodes, self._pi[:length], self._pj[:length]
        )

    def committed_index_block(
        self, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Committed pairs in ``[start, stop)`` as dense node-index arrays.

        Commits further draws as needed; the returned block is truncated at
        ``max_horizon`` (or at a finite future's end), so it may be shorter
        than requested — empty once the committed future is exhausted.  This
        is the batched alternative to per-interaction
        :meth:`interaction_at` calls.  The blocks are int32 views of the
        committed buffers; a ``start`` below the released floor raises
        :class:`~repro.core.exceptions.ConfigurationError`.
        """
        self._require_retained(start)
        self.ensure_committed(stop)
        stop = min(stop, self._size)
        if start >= stop:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        low, high = start - self._base, stop - self._base
        return self._pi[low:high], self._pj[low:high]

    def take_meetings(
        self, node: int, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Consume ``[start, stop)``, keeping only the interactions of ``node``.

        Returns ``(times, i, j, count)``: the committed interactions in
        ``[start, stop)`` that involve dense index ``node``, as ascending
        absolute int64 times and their int32 endpoints in raw draw order,
        and ``count``, the number of interactions read (short once the
        committed future runs out, as :meth:`committed_index_block` is).
        Everything before ``start + count`` is released; a ``start`` below
        the released floor raises
        :class:`~repro.core.exceptions.ConfigurationError`.

        What is stored is read from the buffers, and the rest is committed
        chunk by chunk, as any read commits it, and filtered with two
        comparisons.  Whole chunks from the committed frontier that lie
        inside the window go to :meth:`_sample_meetings` first: a family
        that draws them there commits and releases them at once, so no
        buffer slot ever holds them and the next growth starts fresh
        buffers.  A chunk the window ends inside is committed and read, so
        the next read goes on from its stored remainder.
        """
        self._require_retained(start)
        times: List[np.ndarray] = []
        firsts: List[np.ndarray] = []
        seconds: List[np.ndarray] = []
        cursor = start
        fuse = True
        while cursor < stop:
            if fuse and cursor == self._size and not self._exhausted:
                limit = min(stop, self._max_horizon)
                # Whole chunks only; the horizon's last one may be short.
                whole = limit - cursor
                if limit < self._max_horizon:
                    whole -= whole % COMMIT_CHUNK
                whole = min(whole, MEETING_DRAW_PAIRS)
                if whole > 0:
                    drawn = self._sample_meetings(whole, node)
                    fuse = drawn is not None
                    if drawn is not None:
                        offsets, i, j = drawn
                        times.append(offsets + cursor)
                        firsts.append(i)
                        seconds.append(j)
                        self._size += whole
                        self._drop_buffers()
                        cursor += whole
                        continue
            if cursor < self._size:
                piece = min(stop, self._size)
            else:
                piece = min(stop, cursor + COMMIT_CHUNK)
            i, j = self.committed_index_block(cursor, piece)
            hits = np.flatnonzero((i == node) | (j == node))
            times.append(hits + cursor)
            firsts.append(i[hits])
            seconds.append(j[hits])
            cursor += i.shape[0]
            self.release_before(cursor)
            if cursor < piece:
                break  # the committed future is exhausted
        count = cursor - start
        if not times:
            empty = np.empty(0, dtype=np.int32)
            return np.empty(0, dtype=np.int64), empty, empty, count
        if len(times) == 1:
            return times[0], firsts[0], seconds[0], count
        return (
            np.concatenate(times), np.concatenate(firsts),
            np.concatenate(seconds), count,
        )

    @classmethod
    def committed_index_matrix(
        cls,
        adversaries: Sequence["CommittedBlockAdversary"],
        start: int,
        stop,
        pad: int = -1,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack one committed block per adversary into ``(B, L)`` matrices.

        This assembles, for the shared window starting at ``start``, the
        dense node-index matrices ``I`` and ``J`` (one row per adversary)
        plus the per-row committed lengths.  The trial-vectorized engine
        reads each block of a trial through it as a one-row matrix.  One
        row has nothing to pad, so it comes back uncopied, as ``i[None]``
        and ``j[None]`` of its ``committed_index_block(start, stop)``:
        read-only int32 views of the committed buffers (int64 for a finite
        sequence's index arrays).  Several rows are copied into int64
        matrices.

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
            row's length hold ``pad`` (one row has none).  A row shorter
            than requested means that adversary's committed future is
            exhausted (finite trace or ``max_horizon``).
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
        if count == 1:
            ((i, j),) = blocks
            rows_i, rows_j = i[None], j[None]
            # Views of the committed future: a write would rewrite it.
            rows_i.flags.writeable = False
            rows_j.flags.writeable = False
            return rows_i, rows_j, lengths
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
        scanned = self._meeting_watermark.get(code, 0)
        times = self._meeting_index.setdefault(code, [])
        if scanned < self._size:
            self._require_retained(scanned)
            self._codes_upto(self._size)
            base = self._base
            hits = np.nonzero(
                self._codes[scanned - base : self._size - base] == code
            )[0]
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
