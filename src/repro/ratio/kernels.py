"""Trial-vectorized offline-optimum kernels.

The pure-Python oracle (:mod:`repro.offline.convergecast`) computes foremost
arrival times with a single backward sweep over one sequence.  The sweep is
inherently sequential in *time* — arrival times at later interactions feed
relaxations at earlier ones — but perfectly parallel across *trials*: every
row of a sweep cell is swept independently.  These kernels exploit exactly
that: one Python-level loop over the shared time axis, numpy array ops of
width ``B`` per step, consuming the same dense ``(B, L)`` committed index
matrices the trial-vectorized engine consumes
(:meth:`~repro.adversaries.committed.CommittedBlockAdversary.
committed_index_matrix`).

All kernels are differential-equal to the oracle sequence for sequence
(``tests/test_ratio_kernels.py``) and all returned times are float64 —
exact for any realistic horizon (``< 2**53``) — so downstream metrics are
byte-identical no matter which implementation produced them.

Row conventions (shared with ``committed_index_matrix``):

* ``I[b, t]`` / ``J[b, t]`` are dense node indices of row ``b``'s committed
  interaction at time ``t``; entries at ``t >= lengths[b]`` are padding and
  are never read into a result;
* a row's window is ``[starts[b], lengths[b])``; nodes unreachable within
  it get :data:`~repro.ratio.semantics.UNREACHABLE`.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..obs import current_collector
from .semantics import UNREACHABLE

__all__ = [
    "foremost_arrival_matrix",
    "opt_end_matrix",
    "successive_convergecast_end_matrix",
]

StartSpec = Union[int, np.ndarray]

#: Time-axis chunk of the backward sweep: bounds the precomputed per-chunk
#: index structures to ~chunk × 2B × 18 bytes regardless of window length.
_TIME_CHUNK = 32768


def _as_matrix(values: np.ndarray) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.int64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (B, L) matrix, got shape {matrix.shape}")
    return matrix


def _index_matrices(
    i_nodes: np.ndarray, j_nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    i_nodes = _as_matrix(i_nodes)
    j_nodes = _as_matrix(j_nodes)
    if j_nodes.shape != i_nodes.shape:
        raise ValueError(
            f"I/J shape mismatch: {i_nodes.shape} vs {j_nodes.shape}"
        )
    return i_nodes, j_nodes


def _starts_vector(starts: StartSpec, batch: int) -> np.ndarray:
    vector = np.broadcast_to(np.asarray(starts, dtype=np.int64), (batch,))
    return vector


def foremost_arrival_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    starts: StartSpec = 0,
) -> np.ndarray:
    """Foremost arrival times at the sink for a whole cell of sequences.

    The vectorized counterpart of :func:`repro.offline.convergecast.
    foremost_arrival_times`: ``result[b, u]`` is the earliest time a
    time-respecting journey starting at or after ``starts[b]`` brings node
    ``u``'s data to the sink using row ``b``'s committed interactions, or
    :data:`~repro.ratio.semantics.UNREACHABLE` when no such journey exists
    within the row's window.  ``result[b, sink] = starts[b] - 1`` by the
    oracle's convention.

    Args:
        i_nodes, j_nodes: ``(B, L)`` dense ``I``/``J`` node-index matrices
            (padding beyond a row's length is ignored; any in-range value
            is acceptable padding).
        lengths: per-row committed lengths, shape ``(B,)``.
        n: number of nodes (dense indices ``0..n-1``).
        sink: dense sink index.
        starts: shared start time, or one per row (shape ``(B,)``).

    Returns:
        ``(B, n)`` float64 arrival-time matrix.
    """
    i_nodes, j_nodes = _index_matrices(i_nodes, j_nodes)
    batch, width = i_nodes.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = _starts_vector(starts, batch)
    if batch == 0 or n == 0:
        return np.full((batch, n), UNREACHABLE, dtype=np.float64)
    # Arrival lives as one flat (B*n + 1) vector so every per-step access
    # is a single fancy gather/scatter on precomputed flat indices.  The
    # extra trailing slot holds -inf and serves as a write sink: node-side
    # indices of positions that must never relax (the sink's own arrival,
    # padding beyond a row's length, times before a row's start) are
    # redirected there during precomputation, which keeps the hot loop down
    # to a handful of numpy ops per time step — the per-step op count, not
    # the array width, dominates at realistic batch sizes.
    flat = np.full(batch * n + 1, UNREACHABLE, dtype=np.float64)
    offsets = np.arange(batch, dtype=np.int64) * n
    flat[offsets + sink] = starts - 1
    dummy = batch * n
    flat[dummy] = -np.inf
    last = min(width, int(lengths.max()))
    first = max(int(starts.min()), 0)
    if last <= first:
        arrival = flat[:dummy].reshape(batch, n)
        return arrival.copy()
    # The time axis is processed in chunks (newest first) so the
    # precomputed per-chunk index structures stay memory-bounded even for
    # horizon-length windows; within a chunk the sweep runs newest-to-
    # oldest exactly like the oracle.
    for chunk_end in range(last, first, -_TIME_CHUNK):
        chunk_start = max(first, chunk_end - _TIME_CHUNK)
        span = slice(chunk_start, chunk_end)
        it = np.ascontiguousarray(i_nodes.T[span])  # (T, B) time-major
        jt = np.ascontiguousarray(j_nodes.T[span])
        steps = chunk_end - chunk_start
        times = np.arange(chunk_start, chunk_end, dtype=np.int64)
        # Node-side flat indices (where a relaxation would write) and
        # peer-side flat indices (whose arrival the journey continues
        # through), both (T, 2B): the u-direction and v-direction of every
        # interaction are processed as one fused vector per step.
        node_index = np.empty((steps, 2 * batch), dtype=np.int64)
        node_index[:, :batch] = it + offsets
        node_index[:, batch:] = jt + offsets
        peer_index = np.empty((steps, 2 * batch), dtype=np.int64)
        peer_index[:, :batch] = jt + offsets
        peer_index[:, batch:] = it + offsets
        peer_is_sink = np.empty((steps, 2 * batch), dtype=bool)
        peer_is_sink[:, :batch] = jt == sink
        peer_is_sink[:, batch:] = it == sink
        blocked = np.empty((steps, 2 * batch), dtype=bool)
        blocked[:, :batch] = it == sink
        blocked[:, batch:] = jt == sink
        dead = (times[:, None] >= lengths[None, :]) | (
            times[:, None] < starts[None, :]
        )
        blocked[:, :batch] |= dead
        blocked[:, batch:] |= dead
        node_index[blocked] = dummy
        for step in range(steps - 1, -1, -1):
            time = times[step]
            peer_arrival = flat[peer_index[step]]
            # Candidate arrival through the peer: the journey completes
            # now when the peer is the sink, otherwise it continues through
            # the peer's strictly-later foremost arrival.
            candidate = np.where(
                peer_arrival > time, peer_arrival, UNREACHABLE
            )
            candidate[peer_is_sink[step]] = time
            node_slot = node_index[step]
            improves = candidate < flat[node_slot]
            if improves.any():
                flat[node_slot[improves]] = candidate[improves]
    arrival = flat[:dummy].reshape(batch, n)
    return arrival.copy()


def opt_end_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    starts: StartSpec = 0,
) -> np.ndarray:
    """The paper's ``opt(start)`` per row: optimal convergecast end times.

    Vectorized counterpart of :func:`repro.offline.convergecast.opt`:
    ``result[b]`` is the ending time of an optimal offline convergecast on
    row ``b`` starting at ``starts[b]``, or
    :data:`~repro.ratio.semantics.UNREACHABLE` when none completes within
    the row's window.  Returns a ``(B,)`` float64 vector.

    The backward sweep runs over doubling prefixes ``[start, start + w)``
    of each row's window (``w = 4n, 8n, 16n, ...``, capped at the row's
    length) instead of the whole window.  A row is final once every
    non-sink arrival in its prefix is finite, or once its prefix is the
    whole window; only the rows still pending sweep the next, longer
    prefix.  This is exact: a foremost journey arriving before the cut
    uses only interactions before it, and cutting the window can only
    remove journeys, so a prefix whose arrivals are all finite has the
    full window's arrivals.  The cost therefore follows ``opt`` rather
    than the length of the window passed in.  The number of time steps
    swept is emitted as the ``ratio.swept_columns`` counter.
    """
    i_nodes, j_nodes = _index_matrices(i_nodes, j_nodes)
    batch, width = i_nodes.shape
    starts = _starts_vector(starts, batch)
    if n <= 1:
        # Degenerate single-node instances: nothing to aggregate (oracle
        # convention: the convergecast is already complete).
        return np.maximum(starts - 1, 0).astype(np.float64)
    limits = np.minimum(np.asarray(lengths, dtype=np.int64), width)
    origins = np.maximum(starts, 0)
    non_sink = np.ones(n, dtype=bool)
    non_sink[sink] = False
    ends = np.full(batch, UNREACHABLE, dtype=np.float64)
    # Rows whose window is empty have no convergecast; leaving them out
    # keeps their lengths from stretching the first pass's sweep.
    pending = np.flatnonzero(origins < limits)
    prefix = 4 * n
    swept = 0
    while pending.size:
        cuts = np.minimum(origins[pending] + prefix, limits[pending])
        stop = int(cuts.max())
        swept += stop - int(origins[pending].min())
        arrival = foremost_arrival_matrix(
            i_nodes[pending, :stop],
            j_nodes[pending, :stop],
            cuts,
            n,
            sink,
            starts=starts[pending],
        )
        row_ends = arrival[:, non_sink].max(axis=1)
        final = np.isfinite(row_ends) | (cuts == limits[pending])
        ends[pending[final]] = row_ends[final]
        pending = pending[~final]
        prefix *= 2
    collector = current_collector()
    if collector.enabled:
        collector.counter("ratio.swept_columns", swept)
    return ends


def successive_convergecast_end_matrix(
    i_nodes: np.ndarray,
    j_nodes: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sink: int,
    count: int,
    starts: StartSpec = 0,
) -> np.ndarray:
    """End times ``T(1) .. T(count)`` of successive convergecasts, per row.

    Vectorized counterpart of :func:`repro.offline.convergecast.
    successive_convergecasts` with a fixed ``count``: ``result[b, i-1]`` is
    the paper's ``T(i)`` for row ``b`` (``T(1) = opt(starts[b])``,
    ``T(i+1) = opt(T(i) + 1)``).  Once a row's convergecasts stop fitting
    in its window, every later entry is
    :data:`~repro.ratio.semantics.UNREACHABLE` — the same sentinel the
    oracle stops listing at.

    Returns a ``(B, count)`` float64 matrix.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    i_nodes, j_nodes = _index_matrices(i_nodes, j_nodes)
    batch, width = i_nodes.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = _starts_vector(starts, batch).copy()
    ends = np.full((batch, count), UNREACHABLE, dtype=np.float64)
    active = np.ones(batch, dtype=bool)
    for round_index in range(count):
        if not active.any():
            break
        # Inactive rows start past their window, which opt_end_matrix
        # answers without sweeping, so one call serves every row each round.
        round_starts = np.where(active, starts, width)
        round_ends = opt_end_matrix(
            i_nodes, j_nodes, lengths, n, sink, starts=round_starts
        )
        ends[active, round_index] = round_ends[active]
        finite = np.isfinite(round_ends) & active
        # Guard against degenerate instances where opt() cannot advance the
        # start (e.g. n <= 1): stop instead of looping on the same window.
        progressed = finite & (round_ends + 1 > starts)
        active = progressed
        safe_ends = np.where(finite, round_ends, 0).astype(np.int64)
        starts = np.where(progressed, safe_ends + 1, starts)
    return ends

