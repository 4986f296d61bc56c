"""The randomized adversary of Section 4.

Every interaction is a pair of nodes drawn uniformly at random among all
``n(n-1)/2`` pairs, independently of the past.  The adversary *commits* to
its draws: the same object answers both the executor's ``interaction_at``
queries and the knowledge oracles' ``next_meeting`` queries, so ``meetTime``
and ``future`` are always consistent with the interactions the executor
replays.

Draws are committed in fixed-size numpy batches (``draw_block``) instead of
one ``randrange`` pair at a time, so the committed future for a given
``(nodes, seed)`` is a pure function of the seed: it does not depend on the
query pattern (single ``interaction_at`` calls, block extensions from
``next_meeting``, parallel workers re-deriving the same trial) — a property
the vectorized execution engine and the parallel sweep rely on.  The
committed-block machinery itself lives in
:class:`~repro.adversaries.committed.CommittedBlockAdversary` and is shared
with the non-uniform and mobility adversary families.

The pairs come from the raw 32-bit words of a PCG64 stream, reduced by
the bounded-integer rule numpy's ``Generator.integers`` applies to 32-bit
ranges (Lemire, "Fast Random Integer Generation in an Interval", ACM
TOMACS 29(1), 2019): :func:`_bounded_uint32` states it, and
``tests/test_adversaries.py`` pins it against a word-at-a-time loop.  The
committed future therefore rests on PCG64's raw output alone, vectorised
over each chunk, instead of on numpy's per-value loop.

A meeting read (:meth:`~repro.adversaries.committed.
CommittedBlockAdversary.take_meetings`) keeps only one node's pairs, about
2/n of them.  For whole chunks past the committed frontier the adversary
then tests the raw words against that node's word ranges and reduces only
the words that pass (:func:`_node_meetings`), drawing exactly what the
pair draw would.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.data import NodeId
from .committed import COMMIT_CHUNK, CommittedBlockAdversary

__all__ = ["COMMIT_CHUNK", "RandomizedAdversary"]


def _more_words(
    bitgen: np.random.PCG64, words: np.ndarray, count: int
) -> np.ndarray:
    """``words`` followed by fresh words of ``bitgen``, at least ``count`` in all.

    Each 64-bit output gives two words, its low half first (the order of
    PCG64's own ``next_uint32``), on any host byte order.
    """
    if words.size >= count:
        return words
    raw = bitgen.random_raw(-(-(count - words.size) // 2))
    fresh = raw.astype("<u8", copy=False).view("<u4")
    return np.concatenate((words, fresh)) if words.size else fresh


def _bounded_uint32(
    bitgen: np.random.PCG64, words: np.ndarray, bound: int, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``k`` values in ``[0, bound)`` from the stream ``words`` + ``bitgen``.

    ``words`` are words already drawn but not yet used, oldest first.
    Each attempt takes one word ``w``: its value is ``(w * bound) >> 32``,
    unless ``(w * bound) mod 2**32`` falls below ``(2**32 - bound) mod
    bound``, which rejects the word and retries on the next one.  A bound
    of 1 takes no word.  This is numpy's rule for ``integers(0, bound, k)``
    with a 32-bit dtype.  The first ``k`` words are reduced in one pass
    when none is rejected (a wrapping multiply and ``.min()`` tell);
    otherwise the values come from the first ``k`` accepted words.
    Returns the values (uint32) and the words left.
    """
    if bound == 1 or k == 0:
        return np.zeros(k, dtype=np.uint32), words
    threshold = (2**32 - bound) % bound
    scale = np.uint32(bound)
    words = _more_words(bitgen, words, k)
    end = k
    picked = words[:k]
    if threshold and (picked * scale).min() < threshold:
        while True:
            accepted = np.flatnonzero(words * scale >= threshold)
            if accepted.size >= k:
                break
            words = _more_words(bitgen, words, words.size + k - accepted.size)
        end = int(accepted[k - 1]) + 1
        picked = words[accepted[:k]]
    product = picked.astype(np.uint64)
    product *= np.uint64(bound)
    product >>= 32
    return product.astype(np.uint32), words[end:]


def _uniform_pairs(
    bitgen: np.random.PCG64, words: np.ndarray, n: int, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``k`` uniform pairs of ``n`` node indices (uint32), and the words left.

    The classic two-step scheme: ``k`` values ``i`` below ``n``, then ``k``
    values ``j`` below ``n - 1`` (:func:`_bounded_uint32`), and ``j`` skips
    over ``i``, exactly as ``Generator(bitgen).integers`` would draw them.
    """
    i, words = _bounded_uint32(bitgen, words, n, k)
    j, words = _bounded_uint32(bitgen, words, n - 1, k)
    j += j >= i
    # A copy, so the word left (at most one) does not pin the draw's words.
    return i, j, words.copy()


def _word_range(low: int, high: int, bound: int) -> Tuple[int, int]:
    """The words that reduce into ``[low, high)`` below ``bound``: ``(first, span)``.

    An accepted word ``w`` reduces to ``(w * bound) >> 32``, which lies in
    ``[low, high)`` exactly when ``w`` lies in ``[ceil(low * 2**32 /
    bound), ceil(high * 2**32 / bound))``.  ``span`` is that range's length
    minus one, so that ``(w - first) mod 2**32 <= span`` tests it in uint32
    even when the range holds every word.
    """
    first = -(-(low << 32) // bound)
    return first, -(-(high << 32) // bound) - first - 1


@lru_cache(maxsize=16)
def _meeting_tables(n: int, node: int) -> Tuple[np.ndarray, ...]:
    """Read-only per-half constants of :func:`_node_meetings`.

    The bounds of the ``i`` and ``j`` halves (``n`` and ``n - 1``, as a
    column), their rejection thresholds, the first word and span (columns)
    of the words that can make ``node`` an endpoint (``i == node``;
    ``j == node`` needs the pre-skip ``j`` in ``{node - 1, node}``), and
    the bounds again as the int64 row the survivors are reduced with.
    """
    ranges = (
        _word_range(node, node + 1, n),
        _word_range(max(node - 1, 0), min(node + 1, n - 1), n - 1),
    )
    tables = (
        np.array([[n], [n - 1]], dtype=np.uint32),
        np.array([(2**32 - n) % n, (2**32 - n + 1) % (n - 1)], dtype=np.uint32),
        np.array([[first] for first, _ in ranges], dtype=np.uint32),
        np.array([[span] for _, span in ranges], dtype=np.uint32),
        np.array([n, n - 1], dtype=np.int64),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _node_meetings(
    bitgen: np.random.PCG64, words: np.ndarray, n: int, node: int, k: int,
    chunks: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """The pairs involving ``node`` among the next ``chunks`` chunks of ``k``.

    One ``random_raw`` call draws the chunks' words, as ``chunks`` calls of
    :func:`_uniform_pairs` take them when no word is rejected: after the
    pending ``words``, chunk ``c`` holds ``2k`` words, the first ``k``
    reduced below ``n`` (its ``i`` values) and the next ``k`` below
    ``n - 1`` (its ``j`` values before they skip ``i``), and the words left
    pending stay pending.  A chunk holds a rejected word when either half
    fails the wrapping-multiply ``.min()`` test of :func:`_bounded_uint32`;
    the chunks from the first such one on are handed back undrawn, by
    rewinding the stream to that chunk's start.

    In the chunks before it, ``i == node`` holds exactly when the i-word
    lies in ``node``'s word range below ``n`` (:func:`_word_range`), and
    ``j == node`` needs the j-word in the range of ``{node - 1, node}``
    below ``n - 1``.  Only words in those ranges are reduced, exactly, and
    filtered.  Needs ``n > 2``: at ``n = 2`` the ``j`` draw takes no word.

    Returns ``(offsets, i, j, clean, words)``: the offsets of the meetings
    from the first chunk's start (int64) and their endpoints (int32), the
    number of chunks drawn, and the words left pending after them.
    """
    bounds, thresholds, firsts, spans, scales = _meeting_tables(n, node)
    pending = words.size
    fresh = bitgen.random_raw(chunks * k).astype("<u8", copy=False).view("<u4")
    stream = np.concatenate((words, fresh)) if pending else fresh
    halves = stream[: 2 * chunks * k].reshape(chunks, 2, k)
    scratch = halves * bounds
    accepted = scratch.min(axis=2) >= thresholds
    clean = chunks
    if not accepted.all():
        clean = int(np.argmin(accepted.all(axis=1)))
        bitgen.advance(-(chunks - clean) * k)
        halves, scratch = halves[:clean], scratch[:clean]
    if pending:
        words = stream[2 * clean * k : 2 * clean * k + pending].copy()
    np.subtract(halves, firsts, out=scratch)
    inside = scratch <= spans
    offsets = np.flatnonzero(inside[:, 0] | inside[:, 1])
    chunk, position = np.divmod(offsets, k)
    pairs = halves[chunk, :, position].astype(np.int64)
    pairs *= scales
    pairs >>= 32
    pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]
    keep = np.flatnonzero((pairs == node).any(axis=1))
    pairs = pairs[keep].astype(np.int32)
    return offsets[keep], pairs[:, 0], pairs[:, 1], clean, words


class RandomizedAdversary(CommittedBlockAdversary):
    """Uniformly random pairwise interactions with a lazily committed future.

    Args:
        nodes: the node set (must contain at least two nodes).
        seed: RNG seed; two adversaries with the same node order and seed
            commit to the same sequence, in any process.
        max_horizon: safety cap on how far the committed future may be
            extended by oracle queries (``next_meeting`` returns None beyond
            it).  The executor's own horizon is handled separately through
            ``max_interactions``.
    """

    family = "randomized"
    _sampler_fields = ("_bitgen", "_words")

    def __init__(
        self,
        nodes: Sequence[NodeId],
        seed: Optional[int] = None,
        max_horizon: int = 10_000_000,
    ) -> None:
        super().__init__(nodes, max_horizon=max_horizon)
        self._bitgen = np.random.PCG64(seed)
        # Words drawn from the stream but not yet used (at most one: the
        # high half of a 64-bit output, as in PCG64's own buffer).
        self._words = np.empty(0, dtype=np.uint32)

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``k`` uniform pairs, vectorised (:func:`_uniform_pairs`).

        Each pair is drawn with the classic two-step scheme (uniform ``i``,
        uniform ``j`` among the remaining ``n - 1`` indices), vectorised over
        the whole block, so the per-pair distribution is exactly uniform over
        the ``n(n-1)/2`` unordered pairs.  The values are those of
        ``Generator(PCG64(seed)).integers(0, n, k)`` then ``integers(0, n -
        1, k)`` (with any integer dtype, since numpy reduces ranges below
        2**32 through the same 32-bit path), returned as int32, the dtype of
        the committed buffers.
        """
        i, j, self._words = _uniform_pairs(
            self._bitgen, self._words, len(self._nodes), k
        )
        return i.view(np.int32), j.view(np.int32)

    def _sample_meetings(
        self, k: int, node: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``k`` pairs chunk by chunk, keeping only those of ``node``.

        Runs of chunks go through :func:`_node_meetings`.  A chunk that holds
        a rejected word, and every chunk at ``n = 2``, is drawn by
        :func:`_uniform_pairs` from the same words and filtered.
        """
        n = len(self._nodes)
        pieces = []
        done = 0
        while done < k:
            size = min(k - done, COMMIT_CHUNK)
            chunks = (k - done) // size
            clean = 0
            if n > 2:
                offsets, i, j, clean, self._words = _node_meetings(
                    self._bitgen, self._words, n, node, size, chunks
                )
                pieces.append((offsets + done, i, j))
                done += clean * size
            if clean < chunks:
                i, j, self._words = _uniform_pairs(
                    self._bitgen, self._words, n, size
                )
                offsets = np.flatnonzero((i == node) | (j == node))
                pieces.append(
                    (offsets + done, i[offsets].view(np.int32),
                     j[offsets].view(np.int32))
                )
                done += size
        if len(pieces) == 1:
            return pieces[0]
        offsets, i, j = zip(*pieces)
        return np.concatenate(offsets), np.concatenate(i), np.concatenate(j)
