"""Property tests for the adversarial-search mutation operators.

Every operator of :mod:`repro.search.mutations` must, on any valid
committed schedule:

* emit a valid committed sequence (the family invariant's machine check
  passes: int64 dense indices in range, no self-interactions, length
  preserved);
* emit a concrete, RNG-free record whose replay via
  :func:`~repro.search.mutations.apply_mutation` reproduces the mutated
  schedule bit-for-bit (lineage determinism);
* preserve oracle consistency — a
  :class:`~repro.adversaries.mobility.TraceReplayAdversary` built from the
  mutated schedule answers ``next_meeting`` (the ``meetTime``/``future``
  oracles' substrate) exactly like a naive scan of the mutated arrays;
* replay transmission-identically across the reference, fast and
  vectorized engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import committed_schedules, common_settings

from repro.algorithms.gathering import Gathering
from repro.core.execution import Executor
from repro.core.vector_execution import VectorizedExecutor
from repro.search.mutations import (
    OPERATORS,
    MutationContext,
    MutationError,
    MutationInvariantError,
    MutationRecord,
    Schedule,
    apply_mutation,
    default_operator_weights,
    invariant_for,
    materialize_base,
    mutate,
    propose_mutation,
)

pytestmark = pytest.mark.search


def _context(schedule: Schedule) -> MutationContext:
    return MutationContext(sink_index=0, horizon=schedule.length)


def _invariant(schedule: Schedule):
    return invariant_for("uniform", schedule.n, schedule.length)


def _mutate_with_op(schedule: Schedule, op: str, seed: int):
    """Propose exactly one ``op`` mutation (weights pin the choice)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    donor_rng = np.random.Generator(np.random.PCG64(seed + 1))
    donor_i = schedule.i.copy()
    donor_rng.shuffle(donor_i)
    donor = Schedule(i=donor_i, j=schedule.j.copy(), n=schedule.n)
    # A shuffled donor may collide i==j somewhere; retarget j to dodge.
    collision = donor.i == donor.j
    fixed_j = donor.j.copy()
    fixed_j[collision] = (donor.j[collision] + 1) % donor.n
    still = donor.i == fixed_j
    fixed_j[still] = (fixed_j[still] + 1) % donor.n
    donor = Schedule(i=donor.i, j=fixed_j, n=donor.n)
    record = propose_mutation(
        schedule,
        rng,
        _context(schedule),
        donor=donor,
        weights={op: 1.0},
    )
    assert record.op == op
    return apply_mutation(schedule, record), record


class TestOperatorValidity:
    @pytest.mark.parametrize("op", OPERATORS)
    @common_settings
    @given(schedule=committed_schedules(), seed=st.integers(0, 2**31 - 1))
    def test_output_is_valid_and_length_preserving(self, op, schedule, seed):
        mutated, record = _mutate_with_op(schedule, op, seed)
        invariant = _invariant(schedule)
        assert invariant.check(mutated) == []
        assert mutated.length == schedule.length
        assert mutated.n == schedule.n

    @pytest.mark.parametrize("op", OPERATORS)
    @common_settings
    @given(schedule=committed_schedules(), seed=st.integers(0, 2**31 - 1))
    def test_record_replays_rng_free(self, op, schedule, seed):
        mutated, record = _mutate_with_op(schedule, op, seed)
        # A record round-tripped through JSON replays identically — no RNG,
        # no context, nothing but the schedule and the record.
        replayed = apply_mutation(
            schedule, MutationRecord.from_json(record.to_json())
        )
        np.testing.assert_array_equal(replayed.i, mutated.i)
        np.testing.assert_array_equal(replayed.j, mutated.j)

    @pytest.mark.parametrize("op", OPERATORS)
    @common_settings
    @given(schedule=committed_schedules(), seed=st.integers(0, 2**31 - 1))
    def test_multiset_preservation_where_promised(self, op, schedule, seed):
        mutated, record = _mutate_with_op(schedule, op, seed)
        if op in ("swap", "delay", "advance"):
            # Reordering operators preserve the meeting multiset exactly.
            before = sorted(zip(schedule.i.tolist(), schedule.j.tolist()))
            after = sorted(zip(mutated.i.tolist(), mutated.j.tolist()))
            assert before == after
        elif op == "retarget":
            # Exactly one endpoint of exactly one slot changed.
            diff = (schedule.i != mutated.i) | (schedule.j != mutated.j)
            assert int(diff.sum()) == 1

    @common_settings
    @given(schedule=committed_schedules(), seed=st.integers(0, 2**31 - 1))
    def test_mutate_verifies_and_is_deterministic(self, schedule, seed):
        invariant = _invariant(schedule)
        outputs = []
        for _ in range(2):
            rng = np.random.Generator(np.random.PCG64(seed))
            mutated, record = mutate(
                schedule,
                rng,
                _context(schedule),
                invariant,
                donor=schedule,
                weights=default_operator_weights(),
            )
            outputs.append((mutated, record))
        (first, record_a), (second, record_b) = outputs
        assert record_a == record_b
        np.testing.assert_array_equal(first.i, second.i)
        np.testing.assert_array_equal(first.j, second.j)


class TestOracleConsistency:
    @pytest.mark.parametrize("op", OPERATORS)
    @common_settings
    @given(schedule=committed_schedules(max_nodes=6, max_len=48),
           seed=st.integers(0, 2**31 - 1))
    def test_next_meeting_matches_naive_scan(self, op, schedule, seed):
        from repro.adversaries.mobility import TraceReplayAdversary

        mutated, _ = _mutate_with_op(schedule, op, seed)
        adversary = TraceReplayAdversary.from_dense_indices(
            mutated.i, mutated.j, list(range(mutated.n)),
            max_horizon=mutated.length,
        )
        i, j = mutated.i.tolist(), mutated.j.tolist()
        for u in range(mutated.n):
            for v in range(mutated.n):
                if u == v:
                    continue
                for after in (-1, 0, mutated.length // 2, mutated.length):
                    expected = next(
                        (
                            t
                            for t in range(mutated.length)
                            if t > after and {i[t], j[t]} == {u, v}
                        ),
                        None,
                    )
                    assert adversary.next_meeting(u, v, after) == expected


class TestEngineReplayIdentity:
    @pytest.mark.parametrize("op", OPERATORS)
    @common_settings
    @given(schedule=committed_schedules(min_nodes=4, max_nodes=8,
                                        min_len=24, max_len=96),
           seed=st.integers(0, 2**31 - 1))
    def test_mutated_schedules_replay_identically(self, op, schedule, seed):
        from repro.adversaries.mobility import TraceReplayAdversary

        mutated, _ = _mutate_with_op(schedule, op, seed)
        nodes = list(range(mutated.n))
        horizon = mutated.length
        results = []
        for engine in (Executor, VectorizedExecutor):
            adversary = TraceReplayAdversary.from_dense_indices(
                mutated.i, mutated.j, nodes, max_horizon=horizon
            )
            result = engine(nodes, 0, Gathering()).run(
                adversary, max_interactions=horizon
            )
            results.append(result)
        reference, vectorized = results
        assert vectorized.terminated == reference.terminated
        assert vectorized.duration == reference.duration
        # Transmission-identical: same (time, sender, receiver) triples.
        assert [
            (t.time, t.sender, t.receiver) for t in vectorized.transmissions
        ] == [
            (t.time, t.sender, t.receiver)
            for t in reference.transmissions
        ]


class TestInvariantHook:
    def test_verify_rejects_self_interaction(self):
        schedule = Schedule(
            i=np.array([0, 1], dtype=np.int64),
            j=np.array([1, 1], dtype=np.int64),
            n=3,
        )
        invariant = invariant_for("uniform", 3, 2)
        with pytest.raises(MutationInvariantError, match="self-interaction"):
            invariant.verify(schedule)

    def test_verify_rejects_length_change(self):
        schedule = Schedule(
            i=np.array([0], dtype=np.int64),
            j=np.array([1], dtype=np.int64),
            n=3,
        )
        with pytest.raises(MutationInvariantError, match="length-preserving"):
            invariant_for("uniform", 3, 2).verify(schedule)

    def test_verify_rejects_out_of_range(self):
        schedule = Schedule(
            i=np.array([0, 5], dtype=np.int64),
            j=np.array([1, 0], dtype=np.int64),
            n=3,
        )
        with pytest.raises(MutationInvariantError, match="indices"):
            invariant_for("uniform", 3, 2).verify(schedule)

    def test_community_intra_only_is_rejected(self):
        with pytest.raises(MutationError, match="seed-dependent"):
            invariant_for("community", 8, 16, {"p_intra": 1.0})

    def test_unknown_family_is_rejected(self):
        with pytest.raises(MutationError, match="unknown adversary family"):
            invariant_for("nope", 8, 16)

    def test_apply_rejects_malformed_records(self):
        schedule = Schedule(
            i=np.array([0, 1, 2], dtype=np.int64),
            j=np.array([1, 2, 0], dtype=np.int64),
            n=3,
        )
        bad = [
            MutationRecord("swap", {"a": 1, "b": 1}),
            MutationRecord("delay", {"a": 2, "b": 1}),
            MutationRecord("advance", {"a": 1, "b": 2}),
            MutationRecord("retarget", {"pos": 0, "endpoint": "i", "value": 1}),
            MutationRecord("splice", {"start": 2, "donor_i": [0, 1], "donor_j": [1, 2]}),
            MutationRecord("unknown", {}),
        ]
        for record in bad:
            with pytest.raises(MutationError):
                apply_mutation(schedule, record)


class TestMaterializeBase:
    @pytest.mark.parametrize("family", ["uniform", "zipf", "hub", "waypoint", "community"])
    def test_base_draws_satisfy_their_invariant(self, family):
        horizon = 64
        schedule = materialize_base(family, 8, 1234, horizon, sink=0)
        assert invariant_for(family, 8, horizon).check(schedule) == []

    def test_base_draws_are_seed_deterministic(self):
        a = materialize_base("uniform", 8, 99, 64)
        b = materialize_base("uniform", 8, 99, 64)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)
