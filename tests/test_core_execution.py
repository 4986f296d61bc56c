"""Unit tests for the executor (repro.core.execution)."""

import pytest

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.core.algorithm import DODAAlgorithm
from repro.core.exceptions import ConfigurationError, ModelViolationError
from repro.core.execution import (
    BatchTrial,
    Executor,
    RecordingProvider,
    SequenceProvider,
    run_algorithm,
)
from repro.core.interaction import Interaction, InteractionSequence
from repro.core.node import NetworkState


class AlwaysFirstReceives(DODAAlgorithm):
    """Test helper: the lower-identifier node always receives."""

    name = "test_always_first"
    oblivious = True

    def decide(self, first, second, time):
        return first.id


class ReturnsOutsider(DODAAlgorithm):
    """Test helper returning a node that is not part of the interaction."""

    name = "test_outsider"

    def decide(self, first, second, time):
        return "not-a-participant"


class MakesSinkTransmit(DODAAlgorithm):
    """Test helper that orders the sink to transmit (illegal)."""

    name = "test_sink_transmits"

    def decide(self, first, second, time):
        if first.is_sink:
            return second.id
        if second.is_sink:
            return first.id
        return None


class MemoryWriter(DODAAlgorithm):
    """Test helper that writes to node memory while claiming to be oblivious."""

    name = "test_memory_writer"
    oblivious = True

    def decide(self, first, second, time):
        first.memory["x"] = time
        return None


class TestExecutorBasics:
    def test_line_convergecast_with_gathering(self, line_nodes, line_sequence_to_sink):
        result = run_algorithm(Gathering(), line_sequence_to_sink, line_nodes, sink=0)
        assert result.terminated
        assert result.duration == 3
        assert result.transmission_count == 3
        assert result.sink_coverage == 4

    def test_star_with_waiting(self, star_sequence):
        result = run_algorithm(Waiting(), star_sequence, [0, 1, 2, 3, 4], sink=0)
        assert result.terminated
        assert result.duration == 4

    def test_waiting_does_not_terminate_without_sink_meetings(self):
        sequence = InteractionSequence.from_pairs([(1, 2), (2, 3), (1, 3)])
        result = run_algorithm(Waiting(), sequence, [0, 1, 2, 3], sink=0)
        assert not result.terminated
        assert result.duration is None
        assert result.interactions_used == 3

    def test_transmission_log_is_chronological(self, line_nodes, line_sequence_to_sink):
        result = run_algorithm(Gathering(), line_sequence_to_sink, line_nodes, sink=0)
        times = [t.time for t in result.transmissions]
        assert times == sorted(times)

    def test_remaining_owners_reported(self):
        sequence = InteractionSequence.from_pairs([(1, 2)])
        result = run_algorithm(Gathering(), sequence, [0, 1, 2, 3], sink=0)
        assert not result.terminated
        assert set(result.remaining_owners) == {1, 3}

    def test_sink_payload_counts_origins(self, line_nodes, line_sequence_to_sink):
        result = run_algorithm(Gathering(), line_sequence_to_sink, line_nodes, sink=0)
        assert result.sink_payload == 4.0

    def test_horizon_cap_with_provider_required(self):
        executor = Executor([0, 1], sink=0, algorithm=Gathering())

        class DummyProvider:
            def interaction_at(self, time, state):
                return Interaction(time, 0, 1)

        with pytest.raises(ConfigurationError):
            executor.run(DummyProvider())

    def test_horizon_cap_is_respected(self):
        executor = Executor([0, 1, 2], sink=0, algorithm=Waiting())

        class NeverSinkProvider:
            def interaction_at(self, time, state):
                return Interaction(time, 1, 2)

        result = executor.run(NeverSinkProvider(), max_interactions=25)
        assert not result.terminated
        assert result.interactions_used == 25

    def test_output_ignored_when_a_node_has_no_data(self):
        # After 2 transmits to 1, the pair (2, 3) can no longer transmit.
        sequence = InteractionSequence.from_pairs([(2, 1), (2, 3), (3, 1), (1, 0)])
        result = run_algorithm(Gathering(), sequence, [0, 1, 2, 3], sink=0)
        assert result.terminated
        senders = [t.sender for t in result.transmissions]
        assert senders == [2, 3, 1]

    def test_each_node_transmits_at_most_once(self, small_random_sequence):
        result = run_algorithm(
            Gathering(), small_random_sequence, list(range(8)), sink=0
        )
        senders = [t.sender for t in result.transmissions]
        assert len(senders) == len(set(senders))

    def test_two_node_instance_trivial(self):
        sequence = InteractionSequence.from_pairs([(0, 1)])
        result = run_algorithm(Gathering(), sequence, [0, 1], sink=0)
        assert result.terminated
        assert result.duration == 1


class TestExecutorValidation:
    def test_decision_outside_interaction_rejected(self):
        sequence = InteractionSequence.from_pairs([(1, 2)])
        with pytest.raises(ModelViolationError):
            run_algorithm(ReturnsOutsider(), sequence, [0, 1, 2], sink=0)

    def test_sink_cannot_be_ordered_to_transmit(self):
        sequence = InteractionSequence.from_pairs([(0, 1)])
        with pytest.raises(ModelViolationError):
            run_algorithm(MakesSinkTransmit(), sequence, [0, 1], sink=0)

    def test_oblivious_enforcement(self):
        sequence = InteractionSequence.from_pairs([(1, 2)])
        executor = Executor(
            [0, 1, 2], sink=0, algorithm=MemoryWriter(), enforce_oblivious=True
        )
        with pytest.raises(ModelViolationError):
            executor.run(sequence)

    def test_oblivious_enforcement_off_by_default(self):
        sequence = InteractionSequence.from_pairs([(1, 2)])
        result = run_algorithm(MemoryWriter(), sequence, [0, 1, 2], sink=0)
        assert not result.terminated

    def test_knowledge_requirement_checked_at_construction(self):
        from repro.algorithms.waiting_greedy import WaitingGreedy

        with pytest.raises(ConfigurationError):
            Executor([0, 1], sink=0, algorithm=WaitingGreedy(tau=5))


class TestRunMany:
    """``Executor.run_many``: the reference batch entry point, on which the
    vectorized engine runs the trials its kernels cannot mirror."""

    def test_matches_one_run_per_trial(self):
        nodes = [0, 1, 2, 3]
        sequence = InteractionSequence.from_pairs(
            [(2, 1), (1, 3), (3, 0), (1, 0), (2, 0)]
        )
        payloads = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        trials = [
            BatchTrial(source=sequence),
            BatchTrial(source=sequence, algorithm=Waiting()),
            BatchTrial(
                source=sequence, max_interactions=3, initial_payloads=payloads
            ),
        ]
        expected = [
            Executor(nodes, 0, Gathering()).run(sequence),
            Executor(nodes, 0, Waiting()).run(sequence),
            Executor(nodes, 0, Gathering()).run(
                sequence, max_interactions=3, initial_payloads=payloads
            ),
        ]
        assert Executor(nodes, 0, Gathering()).run_many(trials) == expected

    def test_knowledge_defaults_to_the_executors_own(self):
        from repro.algorithms.waiting_greedy import WaitingGreedy
        from repro.knowledge import KnowledgeBundle, MeetTimeKnowledge

        sequence = InteractionSequence.from_pairs(
            [(1, 2), (2, 0), (1, 0), (1, 2), (2, 0)]
        )
        knowledge = KnowledgeBundle(
            MeetTimeKnowledge(sequence, 0, horizon=len(sequence), strict=False)
        )
        executor = Executor(
            [0, 1, 2], 0, WaitingGreedy(tau=3), knowledge=knowledge
        )
        # A per-trial executor built without the oracle would be rejected
        # at construction: WaitingGreedy requires meetTime.
        (result,) = executor.run_many([BatchTrial(source=sequence)])
        assert result == executor.run(sequence)

    def test_trials_are_consumed_lazily(self):
        sequence = InteractionSequence.from_pairs([(1, 0), (2, 0)])
        providers = []

        def trials():
            for _ in range(3):
                # Every earlier trial already ran before this one is built.
                assert all(provider.recorded for provider in providers)
                providers.append(RecordingProvider(SequenceProvider(sequence)))
                yield BatchTrial(
                    source=providers[-1], max_interactions=len(sequence)
                )

        results = Executor([0, 1, 2], 0, Gathering()).run_many(trials())
        assert len(results) == 3
        assert all(result.terminated for result in results)


class TestProviders:
    def test_sequence_provider_returns_none_past_end(self):
        provider = SequenceProvider(InteractionSequence.from_pairs([(0, 1)]))
        state = NetworkState([0, 1], sink=0)
        assert provider.interaction_at(0, state) is not None
        assert provider.interaction_at(5, state) is None

    def test_recording_provider_records_played_interactions(self):
        provider = RecordingProvider(
            SequenceProvider(InteractionSequence.from_pairs([(0, 1), (1, 2)]))
        )
        state = NetworkState([0, 1, 2], sink=0)
        provider.interaction_at(0, state)
        provider.interaction_at(1, state)
        recorded = provider.recorded_sequence()
        assert len(recorded) == 2
        assert recorded[1].pair == frozenset({1, 2})

    def test_recording_provider_rejects_time_gaps(self):
        provider = RecordingProvider(
            SequenceProvider(InteractionSequence.from_pairs([(0, 1), (1, 2), (0, 2)]))
        )
        state = NetworkState([0, 1, 2], sink=0)
        provider.interaction_at(0, state)
        with pytest.raises(ModelViolationError):
            provider.interaction_at(2, state)

    def test_recording_provider_allows_consistent_requery(self):
        provider = RecordingProvider(
            SequenceProvider(InteractionSequence.from_pairs([(0, 1), (1, 2)]))
        )
        state = NetworkState([0, 1, 2], sink=0)
        first = provider.interaction_at(0, state)
        again = provider.interaction_at(0, state)
        assert first == again
        assert len(provider.recorded) == 1

    def test_recording_provider_rejects_mismatching_overwrite(self):
        # An adaptive provider that answers differently on replay must not
        # silently rewrite the recorded history.
        class Flaky:
            def __init__(self):
                self.calls = 0

            def interaction_at(self, time, state):
                self.calls += 1
                return Interaction(time=time, u=self.calls, v=self.calls + 1)

        provider = RecordingProvider(Flaky())
        state = NetworkState([0, 1, 2, 3], sink=0)
        provider.interaction_at(0, state)
        with pytest.raises(ModelViolationError):
            provider.interaction_at(0, state)
