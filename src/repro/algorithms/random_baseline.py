"""Randomized oblivious baselines.

These are not algorithms from the paper; they serve two purposes in the
reproduction:

* :class:`CoinFlipGathering` is the target of the Theorem 2 construction
  (an *oblivious randomized* algorithm): when it can transmit it does so
  only with probability ``p``, so the adversary's Monte-Carlo estimation of
  the first-transmission distribution is exercised on a genuinely random
  algorithm.
* :class:`RandomReceiver` is a sanity baseline for the comparison benches:
  it always transmits but picks the receiver uniformly at random (ignoring
  which node is the sink unless the sink is the drawn receiver), which is
  strictly worse than Gathering and shows up as such in the comparison
  figure.

Both draw their decisions from a ``random.Random(seed)`` stream, with
``seed=0`` by default, so a run is reproducible even when the algorithm is
built by name (``registry.create``, the CLI, campaign specs): every fresh
instance replays the same decision stream.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.algorithm import DODAAlgorithm, registry
from ..core.data import NodeId
from ..core.node import NodeView


@registry.register
class CoinFlipGathering(DODAAlgorithm):
    """Gathering that transmits only with probability ``p`` at each opportunity."""

    name = "coin_flip_gathering"
    oblivious = True
    requires = frozenset()

    def __init__(self, p: float = 0.5, seed: Optional[int] = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self._rng = random.Random(seed)

    def decide(
        self, first: NodeView, second: NodeView, time: int
    ) -> Optional[NodeId]:
        if self._rng.random() >= self.p:
            return None
        if first.is_sink:
            return first.id
        if second.is_sink:
            return second.id
        return first.id


@registry.register
class RandomReceiver(DODAAlgorithm):
    """Always transmit, to a uniformly random endpoint of the interaction.

    The sink can never be the sender (the executor forbids it), so when the
    draw designates the sink as sender the algorithm abstains instead.
    """

    name = "random_receiver"
    oblivious = True
    requires = frozenset()

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._rng = random.Random(seed)

    def decide(
        self, first: NodeView, second: NodeView, time: int
    ) -> Optional[NodeId]:
        receiver = first if self._rng.random() < 0.5 else second
        sender = second if receiver is first else first
        if sender.is_sink:
            return None
        return receiver.id
