"""Non-uniform randomized adversary (concluding remarks, question 3).

The paper closes by asking whether randomized adversaries with a
*non-uniform* interaction distribution change the Section 4 bounds (in the
spirit of Yamauchi et al. on probabilistic schedulers).  This adversary
draws each interaction with probability proportional to the product of the
two endpoints' weights, which covers the natural skews:

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

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

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


class NonUniformRandomizedAdversary(CommittedBlockAdversary):
    """Randomized adversary with pair probability proportional to weight products."""

    family = "randomized"

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
            raise ConfigurationError(
                f"missing weights for nodes {sorted(map(repr, missing))}"
            )
        if any(weights[node] <= 0 for node in self._nodes):
            raise ConfigurationError("weights must be strictly positive")
        self._weights = {node: float(weights[node]) for node in self._nodes}
        self._pairs: List[Tuple[NodeId, NodeId]] = list(
            itertools.combinations(self._nodes, 2)
        )
        # Dense index view of the same pair list, for committed-block commits.
        self._pair_indices = np.array(
            [
                (self._index_of[u], self._index_of[v])
                for u, v in self._pairs
            ],
            dtype=np.int64,
        )
        pair_weights = [
            self._weights[u] * self._weights[v] for u, v in self._pairs
        ]
        total = sum(pair_weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in pair_weights:
            running += weight / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0
        self._cdf = np.asarray(self._cumulative, dtype=np.float64)
        # Seeded PCG64 stream (seeds arrive derived via repro.sim.seeding);
        # the stdlib-random stream this replaces was never byte-pinned — the
        # committed-future contract only requires draws to be a pure,
        # chunk-alignment-independent function of the seed, which a single
        # Generator consumed in commit order satisfies.
        self._rng = np.random.Generator(np.random.PCG64(seed))

    # ------------------------------------------------------------------ #
    def pair_probability(self, u: NodeId, v: NodeId) -> float:
        """The per-interaction probability of the pair ``{u, v}``."""
        try:
            index = self._pairs.index((u, v))
        except ValueError:
            index = self._pairs.index((v, u))
        lower = self._cumulative[index - 1] if index > 0 else 0.0
        return self._cumulative[index] - lower

    def _sample_block(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``k`` pairs by inverse-CDF sampling, one uniform each.

        Exactly one RNG value is consumed per committed interaction, in
        commit order (PCG64 doubles are generated sequentially, so a block
        draw of ``k`` equals ``k`` single draws), keeping the committed
        future a pure prefix-deterministic function of the seed regardless
        of chunk alignment.
        """
        last = len(self._pairs) - 1
        points = self._rng.random(k)
        picks = np.minimum(
            np.searchsorted(self._cdf, points, side="left"), last
        ).astype(np.int64)
        chosen = self._pair_indices[picks]
        return chosen[:, 0].copy(), chosen[:, 1].copy()

    def _meeting_search_block(self, iu: int, iv: int) -> int:
        """Extend by the pair's expected waiting time per probe."""
        u, v = self._nodes[iu], self._nodes[iv]
        return max(16, int(2.0 / max(self.pair_probability(u, v), 1e-9)))
