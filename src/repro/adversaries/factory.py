"""Named adversary families for runners, sweeps and the CLI.

The sim layer and the CLI refer to committed adversaries by *family name*
(``--adversary waypoint``) instead of constructing classes directly, so a
sweep can swap the interaction distribution without touching anything else.
Every family listed here implements the committed-block protocol of
:class:`~repro.adversaries.committed.CommittedBlockAdversary` and is
therefore supported by both execution engines (the vectorized one in
batches) and
by the ``meetTime``/``future`` knowledge oracles.

Trace replay (:class:`~repro.adversaries.mobility.TraceReplayAdversary`) is
deliberately *not* a named family: a recorded trace fixes both the node set
and the horizon, so it does not fit a ``(nodes, seed)``-parameterised sweep;
construct it directly instead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..core.data import NodeId
from .committed import CommittedBlockAdversary
from .mobility import CommunityAdversary, RandomWaypointAdversary
from .nonuniform import NonUniformRandomizedAdversary, hub_weights, zipf_weights
from .randomized import RandomizedAdversary

__all__ = ["ADVERSARY_FAMILIES", "make_adversary", "resolve_adversary_family"]


def _make_uniform(nodes, seed, max_horizon, sink, params):
    return RandomizedAdversary(nodes, seed=seed, max_horizon=max_horizon)


def _make_zipf(nodes, seed, max_horizon, sink, params):
    exponent = params.get("exponent", 1.0)
    return NonUniformRandomizedAdversary(
        nodes,
        weights=zipf_weights(nodes, exponent=exponent),
        seed=seed,
        max_horizon=max_horizon,
    )


def _make_hub(nodes, seed, max_horizon, sink, params):
    hub = params.get("hub", sink)
    return NonUniformRandomizedAdversary(
        nodes,
        weights=hub_weights(nodes, hub=hub, hub_factor=params.get("hub_factor", 8.0)),
        seed=seed,
        max_horizon=max_horizon,
    )


def _make_waypoint(nodes, seed, max_horizon, sink, params):
    return RandomWaypointAdversary(
        nodes,
        seed=seed,
        radio_range=params.get("radio_range", 0.18),
        speed_range=params.get("speed_range", (0.02, 0.06)),
        static_node=params.get("static_node", sink),
        max_horizon=max_horizon,
    )


def _make_community(nodes, seed, max_horizon, sink, params):
    return CommunityAdversary(
        nodes,
        communities=params.get("communities"),
        p_intra=params.get("p_intra", 0.8),
        seed=seed,
        max_horizon=max_horizon,
    )


#: family name -> factory(nodes, seed, max_horizon, sink, params).
ADVERSARY_FAMILIES: Dict[str, Callable[..., CommittedBlockAdversary]] = {
    "uniform": _make_uniform,
    "zipf": _make_zipf,
    "hub": _make_hub,
    "waypoint": _make_waypoint,
    "community": _make_community,
}


def resolve_adversary_family(name: str) -> Callable[..., CommittedBlockAdversary]:
    """Map an adversary family name to its factory.

    Raises:
        ValueError: if ``name`` is not a known family.
    """
    try:
        return ADVERSARY_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary family {name!r}; "
            f"available: {sorted(ADVERSARY_FAMILIES)}"
        ) from None


def make_adversary(
    family: str,
    nodes: Sequence[NodeId],
    seed: Optional[int] = None,
    max_horizon: int = 10_000_000,
    sink: Optional[NodeId] = None,
    params: Optional[dict] = None,
) -> CommittedBlockAdversary:
    """Build a committed adversary of the named family.

    Args:
        family: one of :data:`ADVERSARY_FAMILIES`.
        nodes: the node set.
        seed: RNG seed (the committed future is a pure function of it).
        max_horizon: safety cap on the committed future.
        sink: sink identifier; families with a distinguished node (``hub``
            defaults its hub, ``waypoint`` its static collection point) use
            it unless overridden through ``params``.
        params: family-specific overrides, e.g. ``{"exponent": 1.5}`` for
            ``zipf`` or ``{"radio_range": 0.25}`` for ``waypoint``.

    Raises:
        ValueError: if ``family`` is unknown.
    """
    factory = resolve_adversary_family(family)
    return factory(nodes, seed, max_horizon, sink, dict(params or {}))
