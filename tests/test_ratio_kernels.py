"""Differential tests: ratio kernels vs the pure-Python offline oracle.

The dense sweep in :mod:`repro.ratio.kernels` must reproduce
:mod:`repro.offline.convergecast` sequence for sequence — foremost arrival
times, ``opt(t)`` and, chained through per-row starts, successive-
convergecast end times — on random sequences, committed adversary cells
and trace replays, including the impossible-aggregation sentinel cases.
This file also pins the hardened
:func:`~repro.offline.convergecast.successive_convergecasts` semantics
(satellite: documented sentinel instead of looping/raising on traces that
never complete) and the scalar ratio vocabulary of
:mod:`repro.ratio.semantics`.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from strategies import common_settings, interaction_sequences, random_sequence

from repro.adversaries.committed import CommittedBlockAdversary
from repro.adversaries.factory import make_adversary
from repro.adversaries.mobility import TraceReplayAdversary
from repro.core.interaction import InteractionSequence
from repro.obs import RecordingCollector, use_collector
from repro.offline.convergecast import (
    INFINITY,
    foremost_arrival_times,
    opt,
    successive_convergecasts,
)
from repro.ratio.kernels import foremost_arrivals, opt_end_matrix
from repro.ratio.semantics import (
    RATIO_UNDEFINED,
    UNREACHABLE,
    competitive_ratio,
    opt_cost_from_end,
)


# random_sequence is shared suite-wide — see tests/strategies.py.


def dense_lists(sequence: InteractionSequence, n: int):
    """The sequence's endpoints as the two int lists ``foremost_arrivals`` reads."""
    i, j = sequence.index_arrays({node: node for node in range(n)})
    return i.tolist(), j.tolist()


def single_row(sequence: InteractionSequence, n: int):
    index_of = {node: node for node in range(n)}
    i, j = sequence.index_arrays(index_of)
    return i[None, :], j[None, :], np.array([len(sequence)], dtype=np.int64)


def cell_rows(sequences, n: int):
    """``(I, J, lengths)`` of one cell, one row per sequence, zero-padded."""
    index_of = {node: node for node in range(n)}
    blocks = [s.index_arrays(index_of) for s in sequences]
    width = max(len(s) for s in sequences)
    I = np.zeros((len(sequences), width), dtype=np.int64)
    J = np.zeros((len(sequences), width), dtype=np.int64)
    for row, (i, j) in enumerate(blocks):
        I[row, : i.shape[0]] = i
        J[row, : j.shape[0]] = j
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    return I, J, lengths


def late_node_sequence(rng: random.Random, n: int, late_at, length: int):
    """A sequence whose ``opt(0)`` is exactly ``late_at``.

    Nodes ``1 .. n-2`` meet the sink (node 0) first, then random traffic
    among them runs until node ``n-1`` meets the sink, for the first time,
    at ``late_at``; random traffic among all nodes follows.  With
    ``late_at=None`` node ``n-1`` never interacts and no convergecast
    completes.
    """
    pairs = [(node, 0) for node in range(1, n - 1)]
    quiet = (length if late_at is None else late_at) - len(pairs)
    pairs += random_sequence(rng, n - 1, quiet).pairs
    if late_at is not None:
        pairs.append((n - 1, 0))
        pairs += random_sequence(rng, n, length - late_at - 1).pairs
    return InteractionSequence.from_pairs(pairs)


def bursty_sequence(rng: random.Random, n: int, length: int):
    """Random traffic in which node ``n-1`` falls silent for long stretches."""
    pairs = []
    while len(pairs) < length:
        pairs += random_sequence(rng, n, rng.randint(n, 4 * n)).pairs
        pairs += random_sequence(rng, n - 1, rng.randint(4 * n, 20 * n)).pairs
    return InteractionSequence.from_pairs(pairs[:length])


def chained_opt_ends(I, J, lengths, n: int, count: int):
    """``T(1) .. T(count)`` per row: ``opt_end_matrix`` with ``T(i) + 1`` starts.

    A row whose last end is infinite starts past its window, which answers
    :data:`UNREACHABLE` again: the oracle's inf-tail convention.
    """
    starts = np.zeros(len(lengths), dtype=np.int64)
    columns = []
    for _ in range(count):
        ends = opt_end_matrix(I, J, lengths, n, 0, starts=starts)
        columns.append(ends)
        starts = np.where(np.isfinite(ends), ends + 1, I.shape[1]).astype(np.int64)
    return np.column_stack(columns)


def traced_opt_ends(*args, **kwargs):
    """``opt_end_matrix`` plus the ``ratio.swept_columns`` it emitted."""
    collector = RecordingCollector()
    with use_collector(collector):
        ends = opt_end_matrix(*args, **kwargs)
    (swept,) = [
        c.value for c in collector.counters if c.name == "ratio.swept_columns"
    ]
    return ends, swept


class TestForemostArrivals:
    def test_matches_oracle_on_random_sequences(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(2, 9)
            sequence = random_sequence(rng, n, rng.randint(0, 90))
            start = rng.randint(0, max(len(sequence), 1))
            first, second = dense_lists(sequence, n)
            arrival = foremost_arrivals(first, second, n, 0, start)
            oracle = foremost_arrival_times(
                sequence, list(range(n)), 0, start=start
            )
            assert arrival == [oracle[node] for node in range(n)]

    @common_settings
    @given(data=st.data())
    def test_matches_oracle_relabelled_to_dense_indices(self, data):
        n, sequence = data.draw(interaction_sequences(min_len=0))
        isolated = data.draw(st.integers(min_value=0, max_value=3))
        nodes = data.draw(st.permutations(range(n + isolated)))
        sink = data.draw(st.sampled_from(nodes))
        start = data.draw(st.integers(min_value=0, max_value=len(sequence) + 3))
        index_of = {node: position for position, node in enumerate(nodes)}
        i, j = sequence.index_arrays(index_of)
        arrival = foremost_arrivals(
            i.tolist(), j.tolist(), len(nodes), index_of[sink], start
        )
        oracle = foremost_arrival_times(sequence, nodes, sink, start=start)
        assert arrival == [oracle[node] for node in nodes]

    def test_disconnected_node_is_unreachable(self):
        # Node 3 never interacts: its arrival must be the inf sentinel.
        sequence = InteractionSequence.from_pairs([(1, 0), (2, 0), (1, 2)])
        arrival = foremost_arrivals(*dense_lists(sequence, 4), 4, 0)
        assert arrival[3] == UNREACHABLE

    def test_rows_with_different_lengths_and_padding(self):
        rng = random.Random(13)
        n = 6
        sequences = [random_sequence(rng, n, length) for length in (0, 5, 40, 17)]
        I, J, lengths = cell_rows(sequences, n)
        ends = opt_end_matrix(I, J, lengths, n, 0)
        for row, sequence in enumerate(sequences):
            assert ends[row] == float(opt(sequence, list(range(n)), 0))

    def test_empty_batch(self):
        I = np.empty((0, 0), dtype=np.int64)
        ends = opt_end_matrix(I, I, np.empty(0, dtype=np.int64), 4, 0)
        assert ends.shape == (0,)


class TestOptEndMatrix:
    def test_matches_oracle_including_unreachable(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(2, 8)
            sequence = random_sequence(rng, n, rng.randint(0, 60))
            I, J, lengths = single_row(sequence, n)
            for start in (0, len(sequence) // 2, len(sequence)):
                kernel = opt_end_matrix(I, J, lengths, n, 0, starts=start)
                assert kernel[0] == float(
                    opt(sequence, list(range(n)), 0, start=start)
                )

    def test_per_row_starts(self):
        rng = random.Random(3)
        n = 5
        sequence = random_sequence(rng, n, 50)
        index_of = {node: node for node in range(n)}
        i, j = sequence.index_arrays(index_of)
        batch = 4
        I = np.tile(i, (batch, 1))
        J = np.tile(j, (batch, 1))
        lengths = np.full(batch, len(sequence), dtype=np.int64)
        starts = np.array([0, 7, 20, 49], dtype=np.int64)
        kernel = opt_end_matrix(I, J, lengths, n, 0, starts=starts)
        for row, start in enumerate(starts.tolist()):
            assert kernel[row] == float(
                opt(sequence, list(range(n)), 0, start=start)
            )

    def test_committed_adversary_cell(self):
        nodes = list(range(7))
        adversaries = [
            make_adversary(family, nodes, seed=seed, max_horizon=4000, sink=0)
            for family in ("uniform", "zipf", "hub", "waypoint", "community")
            for seed in (0, 1)
        ]
        stops = [150 + 17 * k for k in range(len(adversaries))]
        for adversary, stop in zip(adversaries, stops):
            adversary.ensure_committed(stop)
        I, J, lengths = CommittedBlockAdversary.committed_index_matrix(
            adversaries, 0, stops, pad=0
        )
        kernel = opt_end_matrix(I, J, lengths, len(nodes), 0)
        for row, (adversary, stop) in enumerate(zip(adversaries, stops)):
            sequence = adversary.committed_prefix(stop)
            assert kernel[row] == float(opt(sequence, nodes, 0))

    def test_chained_starts_match_successive_convergecasts(self):
        rng = random.Random(5)
        count = 6
        for _ in range(80):
            n = rng.randint(2, 7)
            sequence = random_sequence(rng, n, rng.randint(0, 80))
            ends = chained_opt_ends(*single_row(sequence, n), n, count)
            oracle = successive_convergecasts(
                sequence, list(range(n)), 0, count=count
            )
            expected = [float(value) for value in oracle]
            expected += [INFINITY] * (count - len(expected))
            assert ends[0].tolist() == expected

    def test_rejects_mismatched_matrices(self):
        I = np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(ValueError, match="one shape"):
            opt_end_matrix(I, I[:, :4], np.array([5, 5]), 3, 0)
        with pytest.raises(ValueError, match="one shape"):
            opt_end_matrix(I[0], I[0], np.array([5]), 3, 0)


class TestPrefixSweep:
    """``opt_end_matrix`` sweeps doubling prefixes ``[start, start + w)``.

    ``w`` runs 4n, 8n, 16n, ... capped at each row's window; a row is final
    once its prefix yields a finite opt end or covers the whole window.
    Windows here are at least 40n long, so several passes run, and every
    result is compared with the pure-Python oracle.
    """

    def test_rows_finish_in_different_passes(self):
        rng = random.Random(41)
        n = 6
        length = 48 * n
        # Resolved by the [0, 4n), [0, 8n), [0, 16n), [0, 32n) passes and
        # by the whole-window pass respectively.
        late = [n, 5 * n, 10 * n, 20 * n, 40 * n]
        sequences = [late_node_sequence(rng, n, at, length) for at in late]
        I, J, lengths = cell_rows(sequences, n)
        ends, swept = traced_opt_ends(I, J, lengths, n, 0)
        assert ends.tolist() == [float(at) for at in late]
        for row, sequence in enumerate(sequences):
            assert ends[row] == float(opt(sequence, list(range(n)), 0))
        # Each row pays for its own passes: 4n, 4n + 8n, ... up to the
        # whole-window pass of the last row.
        assert swept == (4 + 12 + 28 + 60 + 108) * n

    def test_row_that_never_completes_sweeps_its_window(self):
        rng = random.Random(43)
        n = 6
        length = 48 * n
        sequence = late_node_sequence(rng, n, None, length)
        ends, swept = traced_opt_ends(*single_row(sequence, n), n, 0)
        assert ends[0] == UNREACHABLE
        assert opt(sequence, list(range(n)), 0) == INFINITY
        # Every pass, the last one over the whole window: less than three
        # windows in total.
        assert swept == (4 + 8 + 16 + 32 + 48) * n
        assert swept < 3 * length

    def test_per_row_starts_at_and_past_the_window_end(self):
        rng = random.Random(47)
        n = 5
        length = 40 * n
        sequences = [
            random_sequence(rng, n, length),
            late_node_sequence(rng, n, 30 * n, length),
            bursty_sequence(rng, n, length),
        ]
        starts = [0, 9, length // 2, length - 3 * n, length - 1, length, length + 7]
        rows = [(s, start) for s in sequences for start in starts]
        I, J, lengths = cell_rows([s for s, _ in rows], n)
        row_starts = np.array([start for _, start in rows], dtype=np.int64)
        ends = opt_end_matrix(I, J, lengths, n, 0, starts=row_starts)
        for row, (sequence, start) in enumerate(rows):
            assert ends[row] == float(
                opt(sequence, list(range(n)), 0, start=start)
            )

    def test_window_longer_than_the_time_chunk(self):
        rng = random.Random(53)
        n = 8
        # Twelve doubling passes from 4n = 32, the last one capped at the
        # window.
        length = 36_768
        late_at = 33_768
        sequences = [
            late_node_sequence(rng, n, late_at, length),
            late_node_sequence(rng, n, None, length),
        ]
        I, J, lengths = cell_rows(sequences, n)
        ends = opt_end_matrix(I, J, lengths, n, 0)
        assert ends.tolist() == [float(late_at), UNREACHABLE]
        assert [opt(s, list(range(n)), 0) for s in sequences] == [
            late_at,
            INFINITY,
        ]

    def test_successive_convergecasts_over_long_windows(self):
        rng = random.Random(59)
        n = 5
        count = 12
        sequences = [
            bursty_sequence(rng, n, rng.randint(40 * n, 80 * n)) for _ in range(6)
        ]
        ends = chained_opt_ends(*cell_rows(sequences, n), n, count)
        for row, sequence in enumerate(sequences):
            oracle = successive_convergecasts(
                sequence, list(range(n)), 0, count=count
            )
            expected = [float(value) for value in oracle]
            expected += [INFINITY] * (count - len(expected))
            assert ends[row].tolist() == expected

    @common_settings
    @given(data=st.data())
    def test_appending_after_a_finite_opt_end_changes_nothing(self, data):
        n, sequence = data.draw(interaction_sequences())
        start = data.draw(st.integers(min_value=0, max_value=len(sequence)))
        end = opt_end_matrix(*single_row(sequence, n), n, 0, starts=start)[0]
        assume(np.isfinite(end))
        keep = data.draw(
            st.integers(min_value=int(end) + 1, max_value=len(sequence))
        )
        _, tail = data.draw(
            interaction_sequences(min_nodes=n, max_nodes=n, min_len=0)
        )
        extended = InteractionSequence.from_pairs(
            sequence.pairs[:keep] + tail.pairs
        )
        extended_end = opt_end_matrix(
            *single_row(extended, n), n, 0, starts=start
        )[0]
        assert extended_end == end


class TestHardenedSuccessiveConvergecasts:
    """Satellite: impossible aggregations return sentinels, never hang."""

    def test_trace_replay_that_never_completes(self):
        # A finite committed trace whose node 3 never meets anyone: the
        # trace replays fine, but no convergecast ever completes.  opt and
        # successive_convergecasts must answer with the documented INFINITY
        # sentinel instead of raising or looping.
        trace = InteractionSequence.from_pairs([(1, 0), (2, 0), (1, 2), (2, 1)])
        adversary = TraceReplayAdversary(trace, nodes=[0, 1, 2, 3])
        sequence = adversary.committed_prefix(50)
        assert adversary.future_exhausted
        nodes = adversary.nodes()
        assert opt(sequence, nodes, 0) == INFINITY
        values = successive_convergecasts(sequence, nodes, 0)
        assert values == [INFINITY]
        values = successive_convergecasts(sequence, nodes, 0, count=4)
        assert values == [INFINITY]

    def test_disconnected_tail(self):
        # Aggregation possible once, then the sequence ends: the second
        # convergecast is INFINITY and the enumeration stops.
        sequence = InteractionSequence.from_pairs([(2, 1), (1, 0)])
        values = successive_convergecasts(sequence, [0, 1, 2], 0)
        assert values[0] == 1
        assert values[-1] == INFINITY

    def test_degenerate_single_node_instance_terminates(self):
        # opt() on a <= 1-node instance cannot advance the start; the
        # enumeration must stop instead of looping forever (regression:
        # this used to hang with count=None on any sequence longer than 1).
        sequence = InteractionSequence.from_pairs([(1, 2), (2, 3), (1, 3)])
        values = successive_convergecasts(sequence, [0], 0)
        assert len(values) <= 2
        assert all(not math.isnan(value) for value in values)
        values = successive_convergecasts(sequence, [0], 0, count=5)
        assert len(values) <= 5

    def test_count_must_be_positive(self):
        sequence = InteractionSequence.from_pairs([(1, 0)])
        with pytest.raises(ValueError, match="count"):
            successive_convergecasts(sequence, [0, 1], 0, count=0)


class TestRatioSemantics:
    def test_opt_cost_from_end(self):
        assert opt_cost_from_end(4) == 5.0
        assert isinstance(opt_cost_from_end(4), float)
        assert opt_cost_from_end(UNREACHABLE) == UNREACHABLE

    def test_ratio_conventions(self):
        assert competitive_ratio(10.0, 5.0) == 2.0
        assert competitive_ratio(5.0, 5.0) == 1.0
        assert competitive_ratio(math.inf, 5.0) == math.inf
        assert math.isnan(competitive_ratio(10.0, UNREACHABLE))
        assert math.isnan(RATIO_UNDEFINED)

    def test_degenerate_zero_cost(self):
        assert competitive_ratio(0.0, 0.0) == 1.0
