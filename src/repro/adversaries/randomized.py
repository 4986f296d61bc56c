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
"""

from __future__ import annotations

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
