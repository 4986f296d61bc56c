"""Unit tests for the adversary framework and the randomized adversary."""

import math

import numpy as np
import pytest

from repro.adversaries import TraceReplayAdversary, make_adversary
from repro.adversaries.base import Adversary, EventuallyPeriodicAdversary
from repro.adversaries.committed import COMMIT_CHUNK, CommittedBlockAdversary
from repro.adversaries.randomized import (
    RandomizedAdversary,
    _bounded_uint32,
    _uniform_pairs,
)
from repro.algorithms.kernels import SinkMeetTable
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.exceptions import ConfigurationError
from repro.core.node import NetworkState
from repro.sim.runner import run_random_trial


@pytest.fixture
def state3():
    return NetworkState([0, 1, 2], sink=0)


class TestEventuallyPeriodicAdversary:
    def test_prefix_then_cycle(self, state3):
        adversary = EventuallyPeriodicAdversary(
            prefix=[(0, 1)], cycle=[(1, 2), (2, 0)]
        )
        pairs = [
            adversary.interaction_at(t, state3).pair for t in range(5)
        ]
        assert pairs == [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 0}),
            frozenset({1, 2}),
            frozenset({2, 0}),
        ]

    def test_finite_when_no_cycle(self, state3):
        adversary = EventuallyPeriodicAdversary(prefix=[(0, 1), (1, 2)])
        assert adversary.interaction_at(1, state3) is not None
        assert adversary.interaction_at(2, state3) is None
        assert adversary.is_finite
        assert len(adversary) == 2

    def test_len_of_infinite_adversary_raises(self):
        adversary = EventuallyPeriodicAdversary(prefix=[], cycle=[(0, 1)])
        with pytest.raises(ConfigurationError):
            len(adversary)

    def test_next_meeting_in_prefix(self):
        adversary = EventuallyPeriodicAdversary(
            prefix=[(0, 1), (1, 2), (0, 1)], cycle=[]
        )
        assert adversary.next_meeting(0, 1, after=0) == 2
        assert adversary.next_meeting(0, 1, after=2) is None

    def test_next_meeting_in_cycle(self):
        adversary = EventuallyPeriodicAdversary(
            prefix=[(0, 1)], cycle=[(1, 2), (2, 0)]
        )
        assert adversary.next_meeting(2, 0, after=0) == 2
        assert adversary.next_meeting(2, 0, after=2) == 4
        assert adversary.next_meeting(0, 1, after=0) is None

    def test_committed_prefix(self):
        adversary = EventuallyPeriodicAdversary(prefix=[(0, 1)], cycle=[(1, 2)])
        sequence = adversary.committed_prefix(4)
        assert len(sequence) == 4
        assert sequence[3].pair == frozenset({1, 2})

    def test_base_adversary_does_not_commit(self):
        with pytest.raises(ConfigurationError):
            Adversary().committed_prefix(5)


class TestRandomizedAdversary:
    def test_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            RandomizedAdversary([0])

    def test_same_seed_same_sequence(self, state3):
        a = RandomizedAdversary([0, 1, 2], seed=5)
        b = RandomizedAdversary([0, 1, 2], seed=5)
        pairs_a = [a.interaction_at(t, state3).pair for t in range(50)]
        pairs_b = [b.interaction_at(t, state3).pair for t in range(50)]
        assert pairs_a == pairs_b

    def test_interaction_pairs_are_valid(self, state3):
        adversary = RandomizedAdversary([0, 1, 2], seed=1)
        for t in range(100):
            interaction = adversary.interaction_at(t, state3)
            assert interaction.u != interaction.v
            assert {interaction.u, interaction.v} <= {0, 1, 2}

    def test_committed_prefix_matches_replay(self, state3):
        adversary = RandomizedAdversary([0, 1, 2, 3], seed=9)
        played = [adversary.interaction_at(t, state3).pair for t in range(30)]
        committed = adversary.committed_prefix(30)
        assert [i.pair for i in committed] == played

    def test_next_meeting_consistency(self, state3):
        adversary = RandomizedAdversary(list(range(5)), seed=4)
        t = adversary.next_meeting(2, 0, after=0)
        assert t is not None
        sequence = adversary.committed_prefix(t + 1)
        assert sequence[t].pair == frozenset({2, 0})
        assert all(
            sequence[i].pair != frozenset({2, 0}) for i in range(1, t)
        )

    def test_next_meeting_respects_max_horizon(self):
        adversary = RandomizedAdversary([0, 1, 2], seed=4, max_horizon=10)
        # A pair that never appears in 10 draws returns None rather than
        # extending forever.
        answer = adversary.next_meeting(1, 2, after=9)
        assert answer is None or answer < 10

    def test_interaction_beyond_horizon_is_none(self, state3):
        adversary = RandomizedAdversary([0, 1, 2], seed=4, max_horizon=10)
        assert adversary.interaction_at(10, state3) is None

    def test_uniformity_over_pairs(self, state3):
        adversary = RandomizedAdversary(list(range(4)), seed=123)
        counts = {}
        for t in range(6000):
            pair = adversary.interaction_at(t, state3).pair
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 6
        expected = 1000
        assert all(0.8 * expected < c < 1.2 * expected for c in counts.values())


class TestAdversaryBatching:
    def test_draw_block_matches_committed_stream(self):
        a = RandomizedAdversary(list(range(6)), seed=42)
        b = RandomizedAdversary(list(range(6)), seed=42)
        prefix = a.committed_prefix(100)
        # Query pattern must not matter: b is grown by oracle queries.
        b.next_meeting(1, 2, after=0)
        assert b.committed_prefix(100) == prefix

    def test_committed_index_block_truncates_at_horizon(self):
        adversary = RandomizedAdversary([0, 1, 2], seed=1, max_horizon=10)
        i, j = adversary.committed_index_block(0, 50)
        assert len(i) == len(j) == 10
        i, j = adversary.committed_index_block(10, 50)
        assert len(i) == 0

    def test_duration_independent_of_commit_pattern(self):
        # Growing the committed future through meetTime oracle queries must
        # not change what the executor replays.
        n, seed = 12, 9
        metrics_lazy = run_random_trial(
            WaitingGreedy(tau=optimal_tau(n)), n, seed, engine="vectorized"
        )
        metrics_reference = run_random_trial(
            WaitingGreedy(tau=optimal_tau(n)), n, seed, engine="reference"
        )
        assert metrics_lazy == metrics_reference
        assert metrics_lazy.terminated
        assert not math.isinf(metrics_lazy.duration)

    def test_draw_block_commits_its_draws(self):
        # A direct draw_block call must never desynchronise the RNG stream
        # from the committed future: what it returns is what gets replayed.
        adversary = RandomizedAdversary(list(range(5)), seed=3)
        i, j = adversary.draw_block(7)
        assert adversary.committed_length == 7
        replay = adversary.committed_prefix(7)
        for t in range(7):
            assert replay[t].pair == frozenset(
                (adversary.nodes()[int(i[t])], adversary.nodes()[int(j[t])])
            )
        # Oracle answers stay consistent with the committed prefix.
        t = adversary.next_meeting(0, 1, after=-1)
        if t is not None and t < 7:
            assert replay[t].pair == frozenset((0, 1))


def _released_reads(adversary, stop, step, first=0):
    """Read ``[first, stop)`` block by block, releasing each block once read."""
    blocks_i, blocks_j = [], []
    for start in range(first, stop, step):
        i, j = adversary.committed_index_block(start, min(start + step, stop))
        blocks_i.append(i.copy())
        blocks_j.append(j.copy())
        adversary.release_before(start + i.shape[0])
    return np.concatenate(blocks_i), np.concatenate(blocks_j)


def _trace_replay(nodes, seed):
    source = RandomizedAdversary(nodes, seed=seed)
    i, j = source.committed_index_block(0, 5 * COMMIT_CHUNK + 123)
    return TraceReplayAdversary.from_dense_indices(i, j, nodes)


class TestRelease:
    """``release_before``: the consumed past goes, the committed future stays."""

    @staticmethod
    def released():
        adversary = RandomizedAdversary(list(range(6)), seed=5)
        adversary.committed_index_block(0, 100)
        # Index one pair's meetings before the release.
        adversary.next_meeting(0, 1, after=-1)
        adversary.release_before(50)
        return adversary

    @pytest.mark.parametrize(
        "read, time",
        [
            (lambda a: a.committed_index_block(49, 60), 49),
            (lambda a: a.committed_pair(7), 7),
            (lambda a: a.interaction_at(49, NetworkState(list(range(6)), 0)), 49),
            (lambda a: a.committed_prefix(1), 0),
            (
                lambda a: CommittedBlockAdversary.committed_index_matrix(
                    [a], 10, 60
                ),
                10,
            ),
            # A pair never indexed before the release would have to scan
            # from time 0.
            (lambda a: a.next_meeting(2, 3, after=60), 0),
        ],
        ids=[
            "index_block", "pair", "interaction_at", "prefix", "matrix",
            "next_meeting",
        ],
    )
    def test_reads_below_the_floor_raise(self, read, time):
        with pytest.raises(
            ConfigurationError, match=f"committed time {time} was released"
        ):
            read(self.released())

    def test_reads_from_the_floor_on_match_a_twin(self):
        adversary = self.released()
        twin = RandomizedAdversary(list(range(6)), seed=5)
        i, j = adversary.committed_index_block(50, 300)
        twin_i, twin_j = twin.committed_index_block(50, 300)
        assert (i == twin_i).all() and (j == twin_j).all()
        assert adversary.committed_pair(50) == twin.committed_pair(50)
        # The pair indexed before the release answers from its index.
        assert adversary.next_meeting(0, 1, after=60) == twin.next_meeting(
            0, 1, after=60
        )

    def test_floor_only_rises_and_stops_at_the_committed_length(self):
        adversary = RandomizedAdversary(list(range(6)), seed=5)
        twin = RandomizedAdversary(list(range(6)), seed=5)
        adversary.ensure_committed(100)
        twin.ensure_committed(100)
        committed = adversary.committed_length
        adversary.release_before(60)
        adversary.release_before(10)
        with pytest.raises(ConfigurationError, match="committed time 59"):
            adversary.committed_pair(59)
        assert adversary.committed_pair(60) == twin.committed_pair(60)
        adversary.release_before(committed + 500)
        i, _ = adversary.committed_index_block(committed, committed + 600)
        twin_i, _ = twin.committed_index_block(committed, committed + 600)
        assert (i == twin_i).all()

    @pytest.mark.parametrize(
        "build",
        [
            lambda nodes: make_adversary("uniform", nodes, seed=11, sink=0),
            lambda nodes: make_adversary("zipf", nodes, seed=11, sink=0),
            lambda nodes: make_adversary("waypoint", nodes, seed=11, sink=0),
            lambda nodes: _trace_replay(nodes, seed=11),
        ],
        ids=["uniform", "zipf", "waypoint", "trace_replay"],
    )
    def test_release_never_changes_the_committed_future(self, build):
        nodes = list(range(20))
        adversary, twin = build(nodes), build(nodes)
        stop = 6 * COMMIT_CHUNK
        i, j = _released_reads(adversary, stop, step=3000)
        twin_i, twin_j = twin.committed_index_block(0, stop)
        assert i.shape == twin_i.shape
        assert (i == twin_i).all() and (j == twin_j).all()
        # Several compactions kept only the live suffix, not the history.
        assert adversary._pi.shape[0] < 4 * COMMIT_CHUNK



LOOKAHEAD_FAMILIES = {
    family: (lambda nodes, family=family: make_adversary(
        family, nodes, seed=11, sink=0
    ))
    for family in ("uniform", "zipf", "hub", "waypoint", "community")
}
LOOKAHEAD_FAMILIES["trace_replay"] = lambda nodes: _trace_replay(nodes, seed=11)


class TestLookahead:
    """``lookahead()``: the next committed chunks, drawn without committing."""

    @staticmethod
    def committed(family):
        """An adversary that committed a prefix, and its untouched twin."""
        nodes = list(range(20))
        adversary = LOOKAHEAD_FAMILIES[family](nodes)
        adversary.committed_index_block(0, 1000)
        return adversary, LOOKAHEAD_FAMILIES[family](nodes)

    @pytest.mark.parametrize("piece", (1, 7, COMMIT_CHUNK + 3))
    @pytest.mark.parametrize("family", sorted(LOOKAHEAD_FAMILIES))
    def test_pieces_match_a_twin_and_leave_the_source_alone(
        self, family, piece
    ):
        adversary, twin = self.committed(family)
        frontier = adversary.committed_length
        # Past the end of the trace replay's 5 * COMMIT_CHUNK + 123 pairs.
        stop = frontier + 4 * COMMIT_CHUNK + 200
        i, j = _released_reads(adversary.lookahead(), stop, piece, first=frontier)
        twin_i, twin_j = twin.committed_index_block(frontier, stop)
        assert i.shape == twin_i.shape and i.shape[0] > 3 * COMMIT_CHUNK
        assert (i == twin_i).all() and (j == twin_j).all()
        # The source committed nothing, and its future is the twin's, also
        # past what the copy drew.
        assert adversary.committed_length == frontier
        beyond = stop + 2 * COMMIT_CHUNK
        source_i, source_j = adversary.committed_index_block(0, beyond)
        twin_i, twin_j = twin.committed_index_block(0, beyond)
        assert (source_i == twin_i).all() and (source_j == twin_j).all()

    @pytest.mark.parametrize("family", sorted(LOOKAHEAD_FAMILIES))
    def test_shares_read_only_tables_and_none_of_the_buffer(self, family):
        adversary, _ = self.committed(family)
        fork = adversary.lookahead()
        assert fork._nodes is adversary._nodes
        assert fork._index_of is adversary._index_of
        shared = {
            "zipf": ("_first", "_second", "_cdf", "_guide"),
            "hub": ("_first", "_second", "_cdf", "_guide"),
            "trace_replay": ("_trace_i", "_trace_j"),
        }.get(family, ())
        for name in shared:
            assert getattr(fork, name) is getattr(adversary, name), name
        for name in adversary._sampler_fields:
            assert getattr(fork, name) is not getattr(adversary, name), name
        assert fork._pi.size == fork._pj.size == 0
        fork.committed_index_block(adversary.committed_length, 3 * COMMIT_CHUNK)
        for mine in (fork._pi, fork._pj):
            for theirs in (adversary._pi, adversary._pj):
                assert not np.shares_memory(mine, theirs)
        with pytest.raises(ConfigurationError, match="was released"):
            fork.committed_pair(adversary.committed_length - 1)


NO_WORDS = np.empty(0, dtype=np.uint32)
#: Chunk lengths of the interleaved draws: empty, odd (as a horizon cuts
#: a chunk), a block and a full chunk.
WORD_KS = (0, 1, 3, 77, 4096, COMMIT_CHUNK)


class TestIndexDtypes:
    """Committed draws are int32; every key formed from them is int64."""

    @pytest.mark.parametrize("n", (2, 3, 400, 70_000, 2**31 - 3))
    @pytest.mark.parametrize("seed", (0, 7))
    def test_uniform_int32_stream_equals_the_int64_stream(self, n, seed):
        # The uniform sampler used to call Generator.integers, and still
        # draws its values, for int32 and int64 output alike: chunks of
        # every length, alternating the dtype.
        rng = np.random.Generator(np.random.PCG64(seed))
        bitgen, words = np.random.PCG64(seed), NO_WORDS
        for step, k in enumerate(WORD_KS + WORD_KS[::-1]):
            dtype = (np.int32, np.int64)[step % 2]
            i, j, words = _uniform_pairs(bitgen, words, n, k)
            want_i = rng.integers(0, n, size=k, dtype=dtype)
            want_j = rng.integers(0, n - 1, size=k, dtype=dtype)
            want_j += want_j >= want_i
            assert (i == want_i).all() and (j == want_j).all(), (
                f"numpy's Generator.integers no longer draws what the word "
                f"loop does (k {k}, {dtype.__name__}): numpy changed its "
                f"bounded 32-bit path, and the committed future follows the "
                f"loop, not numpy"
            )

    def test_pair_codes_stay_int64_past_46340_nodes(self):
        n = 50_000
        adversary = RandomizedAdversary(
            list(range(n)), seed=71, max_horizon=COMMIT_CHUNK
        )
        adversary.ensure_committed(1)
        u, v = adversary.committed_pair(0)
        # This seed's first pair has a code past int32's range.
        assert min(u, v) * n + max(u, v) >= 2**31
        assert adversary.next_meeting(u, v, -1) == 0

    def test_sink_meet_table_keys_stay_int64_past_2_31(self):
        n, sink, horizon = 1000, 0, 5_000_000
        adversary = RandomizedAdversary(list(range(n)), seed=3)
        table = SinkMeetTable(
            adversary, sink, horizon, gap=n * (n - 1) // 2, prefix=600_000
        )
        i, j = adversary.committed_index_block(0, table.covered)
        times = np.flatnonzero((i == sink) | (j == sink))
        partners = (i[times] + j[times] - sink).astype(np.int64)
        # Partners whose key node * (horizon + 2) passes 2**31.
        high = partners * (horizon + 2) >= 2**31
        assert high.sum() >= 10
        nodes = partners[high].astype(np.int32)
        before = times[high] - 1
        values, known = table.lookup(nodes, before)
        assert known.all()
        expected = [
            adversary.next_meeting(int(node), sink, int(t))
            for node, t in zip(nodes, before)
        ]
        assert values.tolist() == expected
        assert [
            table.lookup_one(int(node), int(t))[0] for node, t in zip(nodes, before)
        ] == expected


def _word_loop(bitgen, pending, bound, k):
    """numpy's bounded 32-bit rule, one word per attempt: the sampler's contract.

    Each attempt takes the ``pending`` word if there is one, else the low
    half of a fresh 64-bit output, keeping its high half pending.  The
    attempt yields ``(w * bound) >> 32`` unless ``(w * bound) mod 2**32``
    is below ``(2**32 - bound) mod bound``.  A bound of 1 takes no word.
    Returns the values and the word left pending (or None).
    """
    if bound == 1:
        return [0] * k, pending
    threshold = (2**32 - bound) % bound
    values = []
    while len(values) < k:
        if pending is None:
            raw = int(bitgen.random_raw())
            word, pending = raw & 0xFFFFFFFF, raw >> 32
        else:
            word, pending = pending, None
        product = word * bound
        if product & 0xFFFFFFFF >= threshold:
            values.append(product >> 32)
    return values, pending


def _pair_loop(bitgen, pending, n, k):
    """The uniform pair draw, word by word: ``i`` below ``n``, ``j`` below ``n - 1``."""
    i, pending = _word_loop(bitgen, pending, n, k)
    j, pending = _word_loop(bitgen, pending, n - 1, k)
    return i, [b + (b >= a) for a, b in zip(i, j)], pending


class TestUniformWords:
    """The uniform sampler is numpy's bounded rule on PCG64's raw words."""

    @pytest.mark.parametrize(
        "bound",
        # 2**31 + 1 and 3 * 2**30 + 1 reject about half and a quarter of
        # the words; 399 makes n = 400, the largest benchmark size.
        (1, 2, 3, 256, 399, 400, 70_000, 2**31 + 1, 3 * 2**30 + 1),
    )
    def test_pairs_equal_the_word_loop(self, bound):
        # n = bound + 1: the j draw runs at ``bound``, the i draw one above.
        n = bound + 1
        for seed in range(30):
            bitgen, words = np.random.PCG64(seed), NO_WORDS
            loop, pending = np.random.PCG64(seed), None
            order = np.random.default_rng(seed).permutation(WORD_KS)
            for k in map(int, order):
                i, j, words = _uniform_pairs(bitgen, words, n, k)
                want_i, want_j, pending = _pair_loop(loop, pending, n, k)
                assert i.tolist() == want_i and j.tolist() == want_j, (seed, k)

    @pytest.mark.parametrize(
        "bound", (1, 2, 5, 400, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 5)
    )
    def test_single_draws_equal_the_word_loop(self, bound):
        for seed in range(10):
            bitgen, words = np.random.PCG64(seed), NO_WORDS
            loop, pending = np.random.PCG64(seed), None
            for k in (1, 0, 3, 77, 1000, 2, 5):
                values, words = _bounded_uint32(bitgen, words, bound, k)
                want, pending = _word_loop(loop, pending, bound, k)
                assert values.tolist() == want, (seed, k)
                assert values.dtype == np.uint32

    @pytest.mark.parametrize("seed", (0, 5))
    def test_lookahead_draws_the_pending_word(self, seed):
        # At n = 2 the j draw takes no word, so an odd block leaves the
        # high half of the i draw's last output pending.
        adversary = RandomizedAdversary([0, 1], seed=seed)
        loop, pending = np.random.PCG64(seed), None
        i, _ = adversary.draw_block(7)
        want_i, _, pending = _pair_loop(loop, pending, 2, 7)
        assert i.tolist() == want_i
        assert pending is not None and adversary._words.tolist() == [pending]
        frontier = adversary.committed_length
        stop = frontier + 2 * COMMIT_CHUNK
        fork = adversary.lookahead()
        fork_i, _ = fork.committed_index_block(frontier, stop)
        source_i, _ = adversary.committed_index_block(frontier, stop)
        want_i = []
        for _ in range(2):
            chunk, _, pending = _pair_loop(loop, pending, 2, COMMIT_CHUNK)
            want_i += chunk
        assert fork_i.tolist() == source_i.tolist() == want_i

    def test_adversary_commits_the_word_loop_across_chunks(self):
        n, seed = 400, 3
        adversary = RandomizedAdversary(list(range(n)), seed=seed)
        i, j = adversary.committed_index_block(0, 2 * COMMIT_CHUNK)
        assert i.dtype == j.dtype == np.int32
        loop, pending = np.random.PCG64(seed), None
        want_i, want_j = [], []
        for _ in range(2):
            chunk_i, chunk_j, pending = _pair_loop(loop, pending, n, COMMIT_CHUNK)
            want_i += chunk_i
            want_j += chunk_j
        assert i.tolist() == want_i and j.tolist() == want_j
