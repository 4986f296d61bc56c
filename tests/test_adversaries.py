"""Unit tests for the adversary framework and the randomized adversary."""

import math

import pytest

from repro.adversaries.base import Adversary, EventuallyPeriodicAdversary
from repro.adversaries.randomized import RandomizedAdversary
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
