"""Non-uniform randomized adversary (concluding remarks, question 3).

The paper closes by asking whether randomized adversaries with a
*non-uniform* interaction distribution change the Section 4 bounds (in the
spirit of Yamauchi et al. on probabilistic schedulers).  This adversary
draws each interaction with probability proportional to the product of the
two endpoints' weights (an exact inverse-CDF pick of one uniform, from a
pair table built once per weight vector and shared read-only), which
covers the natural skews:

* a *popular hub* (one node, possibly the sink, with a much larger weight);
* *Zipf-distributed* activity (a few very social nodes, a long tail);
* the uniform adversary as the special case of equal weights.

The committed-future machinery is shared with :class:`RandomizedAdversary`
through :class:`~repro.adversaries.committed.CommittedBlockAdversary`, so
the ``meetTime`` and ``future`` oracles stay consistent with the replayed
interactions, both engines can consume the adversary (the vectorized one
in batches), and the ablation experiment (E18) can rerun the paper's
algorithms unchanged under the skewed distribution.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.data import NodeId
from ..core.exceptions import ConfigurationError
from .committed import CommittedBlockAdversary


def zipf_weights(nodes: Sequence[NodeId], exponent: float = 1.0) -> Dict[NodeId, float]:
    """Zipf-like activity weights: the i-th node gets weight ``1 / (i+1)^exponent``."""
    return {
        node: 1.0 / (index + 1) ** exponent for index, node in enumerate(nodes)
    }


def hub_weights(
    nodes: Sequence[NodeId], hub: NodeId, hub_factor: float = 10.0
) -> Dict[NodeId, float]:
    """Equal weights except for one hub node that is ``hub_factor`` times more active."""
    weights = {node: 1.0 for node in nodes}
    if hub not in weights:
        raise ConfigurationError(f"hub {hub!r} is not one of the nodes")
    weights[hub] = hub_factor
    return weights


@lru_cache(maxsize=4)
def _pair_table(weights: Tuple[float, ...]) -> Tuple[np.ndarray, ...]:
    """Read-only pair ends (``itertools.combinations`` order), left-to-right CDF
    and guide table of ``weights``.  ``M = len(guide) - 1`` is a power of two
    ≥ 8 × pairs, so ``cdf[i] < g / M`` iff ``floor(cdf[i] * M) < g``, and
    ``guide[g]`` counts those ``i``."""
    first, second = np.triu_indices(len(weights), 1)
    pair_weights = np.take(weights, first) * np.take(weights, second)
    total = np.cumsum(pair_weights)[-1]
    if not (min(weights) > 0 and 0 < total < math.inf):
        raise ConfigurationError("weights and their pair-product sum must be finite and positive")
    cdf = np.cumsum(pair_weights / total)
    cdf[-1] = 1.0  # so every uniform u < 1 picks a pair
    buckets = 1 << (8 * cdf.size - 1).bit_length()
    runs = np.diff((cdf * buckets).astype(np.intp) + 1, prepend=0, append=buckets + 1)
    table = (first, second, cdf, np.repeat(np.arange(cdf.size + 1, dtype=np.int32), runs))
    for array in table:
        array.flags.writeable = False
    return table


def _guide_pick(cdf: np.ndarray, guide: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, points, "left")`` for ``points`` in ``[0, 1)``."""
    cells = (points * (guide.size - 1)).astype(np.intp)  # exact: M is a power of two
    picks = guide[cells]
    split = np.flatnonzero(picks != guide[cells + 1])  # buckets holding a CDF step
    picks[split] = np.searchsorted(cdf, points[split], side="left")
    return picks


class NonUniformRandomizedAdversary(CommittedBlockAdversary):
    """Randomized adversary with pair probability proportional to weight products."""

    family = "randomized"
    _sampler_fields = ("_rng",)

    def __init__(
        self,
        nodes: Sequence[NodeId],
        weights: Optional[Dict[NodeId, float]] = None,
        seed: Optional[int] = None,
        max_horizon: int = 10_000_000,
    ) -> None:
        super().__init__(nodes, max_horizon=max_horizon)
        weights = weights or {node: 1.0 for node in self._nodes}
        missing = set(self._nodes) - set(weights)
        if missing:
            raise ConfigurationError(f"missing weights for nodes {sorted(map(repr, missing))}")
        self._first, self._second, self._cdf, self._guide = _pair_table(
            tuple(float(weights[node]) for node in self._nodes)
        )
        self._rng = np.random.Generator(np.random.PCG64(seed))

    # ------------------------------------------------------------------ #
    def pair_probability(self, u: NodeId, v: NodeId) -> float:
        """The per-interaction probability of the pair ``{u, v}`` of distinct nodes."""
        a, b = sorted((self._index_of.get(u, -1), self._index_of.get(v, -1)))
        if a < 0 or a == b:
            raise ConfigurationError(f"{(u, v)!r} is not a pair of distinct nodes")
        return self._dense_pair_probability(a, b)

    def _dense_pair_probability(self, low: int, high: int) -> float:
        index = low * len(self._nodes) - low * (low + 1) // 2 + high - low - 1
        return float(self._cdf[index] - (self._cdf[index - 1] if index else 0.0))

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``k`` pairs by inverse-CDF sampling, one uniform each.

        Exactly one RNG value is consumed per committed interaction, in
        commit order (PCG64 doubles are generated sequentially, so a block
        draw of ``k`` equals ``k`` single draws), keeping the committed
        future a pure prefix-deterministic function of the seed regardless
        of chunk alignment.
        """
        picks = _guide_pick(self._cdf, self._guide, self._rng.random(k))
        return self._first[picks], self._second[picks]

    def _meeting_search_block(self, iu: int, iv: int) -> int:
        """Extend by the pair's expected waiting time per probe."""
        return max(16, int(2.0 / max(self._dense_pair_probability(*sorted((iu, iv))), 1e-9)))
