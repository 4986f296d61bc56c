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
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.data import NodeId
from .committed import COMMIT_CHUNK, CommittedBlockAdversary

__all__ = ["COMMIT_CHUNK", "RandomizedAdversary"]


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

    def __init__(
        self,
        nodes: Sequence[NodeId],
        seed: Optional[int] = None,
        max_horizon: int = 10_000_000,
    ) -> None:
        super().__init__(nodes, max_horizon=max_horizon)
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``k`` uniform pairs, vectorised.

        Each pair is drawn with the classic two-step scheme (uniform ``i``,
        uniform ``j`` among the remaining ``n - 1`` indices), vectorised over
        the whole block, so the per-pair distribution is exactly uniform over
        the ``n(n-1)/2`` unordered pairs.
        """
        n = len(self._nodes)
        i = self._rng.integers(0, n, size=k)
        j = self._rng.integers(0, n - 1, size=k)
        j = np.where(j >= i, j + 1, j)
        return i, j
