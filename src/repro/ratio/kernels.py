"""The dense offline-optimum sweep and the per-row ``opt(t)`` built on it.

The pure-Python oracle (:mod:`repro.offline.convergecast`) computes foremost
arrival times with one backward sweep over an interaction sequence.
:func:`foremost_arrivals` is the same sweep over dense node indices held in
plain int lists, and the program's only dense copy of it: the full-knowledge
plan builder (:func:`repro.algorithms.full_knowledge.convergecast_plan`)
runs it on one trial's sequence, and :func:`opt_end_matrix` runs it row by
row over dense ``(B, L)`` index matrices.  The trial-vectorized engine
captures a trial's optimum with one-row calls, one per doubling prefix of
its committed future (:meth:`~repro.adversaries.committed.
CommittedBlockAdversary.committed_index_block`), at ``prepare``.

Both functions are differential-equal to the oracle sequence for sequence
(``tests/test_ratio_kernels.py``), and :func:`opt_end_matrix` returns
float64 — exact for any realistic horizon (``< 2**53``) — so downstream
metrics are byte-identical no matter which implementation produced them.

Row conventions:

* ``I[b, t]`` / ``J[b, t]`` are dense node indices of row ``b``'s committed
  interaction at time ``t``; entries at ``t >= lengths[b]`` are padding and
  are never read;
* a row's window is ``[starts[b], lengths[b])``; nodes unreachable within
  it get :data:`~repro.ratio.semantics.UNREACHABLE`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np

from ..obs import current_collector
from .semantics import UNREACHABLE

__all__ = ["foremost_arrivals", "opt_end_matrix"]


def foremost_arrivals(
    first: Sequence[int],
    second: Sequence[int],
    size: int,
    sink: int,
    start: int = 0,
) -> List[float]:
    """Foremost arrival time at the sink of every dense node index.

    The dense form of :func:`repro.offline.convergecast.
    foremost_arrival_times`: ``first[t]`` and ``second[t]`` are the
    endpoints of the interaction at time ``t``, as indices in
    ``range(size)``.  ``result[u]`` is the earliest time a time-respecting
    journey starting at or after ``start`` brings node ``u``'s data to the
    sink, or :data:`~repro.ratio.semantics.UNREACHABLE` when no journey
    exists within ``[start, len(first))``; ``result[sink]`` is
    ``start - 1`` by the oracle's convention.  Finite entries are ints.
    """
    arrival: List[float] = [UNREACHABLE] * size
    arrival[sink] = start - 1
    for time in range(len(first) - 1, max(start, 0) - 1, -1):
        u = first[time]
        v = second[time]
        # A non-sink arrival set so far came from a strictly later
        # interaction, so it lies after ``time``: meeting the sink now is
        # always foremost, and otherwise the journey through the peer
        # continues at the peer's own arrival.
        if u == sink:
            arrival[v] = time
        elif v == sink:
            arrival[u] = time
        else:
            arrival_u = arrival[u]
            arrival_v = arrival[v]
            if arrival_v < arrival_u:
                arrival[u] = arrival_v
            elif arrival_u < arrival_v:
                arrival[v] = arrival_u
    return arrival


def opt_end_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    starts: Union[int, np.ndarray] = 0,
) -> np.ndarray:
    """The paper's ``opt(start)`` per row: optimal convergecast end times.

    Counterpart of :func:`repro.offline.convergecast.opt` for a whole cell:
    ``result[b]`` is the ending time of an optimal offline convergecast on
    row ``b`` starting at ``starts[b]`` (one shared start or one per row),
    or :data:`~repro.ratio.semantics.UNREACHABLE` when none completes
    within the row's window.  Returns a ``(B,)`` float64 vector.

    Each row runs :func:`foremost_arrivals` over doubling prefixes
    ``[start, start + w)`` of its window (``w = 4n, 8n, 16n, ...``, capped
    at the row's length) instead of the whole window, and stops once its
    largest non-sink arrival is finite or its prefix is the whole window.
    This is exact: a foremost journey arriving before the cut uses only
    interactions before it, and cutting the window can only remove
    journeys, so a prefix whose arrivals are all finite has the full
    window's arrivals.  The cost therefore follows ``opt`` rather than the
    length of the window passed in.  The time steps swept, summed over rows
    and passes, are emitted as the ``ratio.swept_columns`` counter.
    """
    i_nodes = np.asarray(i_nodes)
    j_nodes = np.asarray(j_nodes)
    if i_nodes.ndim != 2 or j_nodes.shape != i_nodes.shape:
        raise ValueError(
            "expected two (B, L) index matrices of one shape, got "
            f"{i_nodes.shape} and {j_nodes.shape}"
        )
    batch, width = i_nodes.shape
    row_starts = np.broadcast_to(np.asarray(starts, dtype=np.int64), (batch,))
    if n <= 1:
        # Degenerate single-node instances: nothing to aggregate (oracle
        # convention: the convergecast is already complete).
        return np.maximum(row_starts - 1, 0).astype(np.float64)
    limits = np.minimum(np.asarray(lengths, dtype=np.int64), width).tolist()
    ends = np.full(batch, UNREACHABLE, dtype=np.float64)
    swept = 0
    for row, start in enumerate(row_starts.tolist()):
        origin = max(start, 0)
        limit = limits[row]
        first: List[int] = []
        second: List[int] = []
        prefix = 4 * n
        while origin < limit:
            cut = min(origin + prefix, limit)
            first += i_nodes[row, len(first):cut].tolist()
            second += j_nodes[row, len(second):cut].tolist()
            swept += cut - origin
            # The sink's own entry, start - 1, lies below every other one.
            end = max(foremost_arrivals(first, second, n, sink, start))
            if not math.isinf(end) or cut == limit:
                ends[row] = end
                break
            prefix *= 2
    collector = current_collector()
    if collector.enabled:
        collector.counter("ratio.swept_columns", swept)
    return ends
