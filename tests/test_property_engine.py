"""Seeded property-based invariants of the execution engines.

Each case derives a random ``(adversary family, algorithm, n, sink, seed)``
combination from a case seed, runs it through the engine under test (the
trial-vectorized engine, at its default block window and at a window
so small that every run crosses many block boundaries), and asserts the
invariants every result in the repository builds on:

* **data conservation** — replaying the transmission log as a coverage
  algebra never loses or duplicates an origin: the surviving owners'
  coverages always partition the node set;
* **sink monotonicity** — the sink never transmits, and its coverage is
  non-decreasing along the run;
* **no transmission after data loss** — once a node has sent its data it
  appears in no later transmission, as sender or receiver;
* **committed-prefix consistency** — every transmission happens at a time
  whose committed interaction is exactly the transmitting pair, and
  re-running the engine on ``committed_prefix`` reproduces the live run;
* **oracle/schedule consistency** — ``next_meeting`` answers agree with
  the committed interactions the executor replays.

The reference executor is additionally run on every case, so each case is
also one more differential data point.
"""

import random
from functools import partial

import pytest

from repro.adversaries.factory import ADVERSARY_FAMILIES, make_adversary
from repro.core.algorithm import registry
from repro.core.execution import Executor
from repro.core.vector_execution import VectorizedExecutor
from repro.sim.runner import build_knowledge_for_random_run, default_horizon

CASE_COUNT = 24

#: A block window far below the engine's first block
#: (``INITIAL_BLOCK``): block boundaries are consumption windows only, so
#: every invariant must hold however often a run crosses one.
SMALL_BLOCK = 16


def derive_case(case_seed: int):
    """One random engine-invariant case, fully determined by ``case_seed``."""
    rng = random.Random(10_000 + case_seed)
    family = rng.choice(sorted(ADVERSARY_FAMILIES))
    name = rng.choice(sorted(registry.names()))
    n = rng.randint(5, 16)
    sink = rng.randrange(n)
    seed = rng.randrange(2**31)
    return family, name, n, sink, seed


def make_algorithm(name: str, n: int):
    kwargs = {}
    if name == "waiting_greedy":
        from repro.algorithms.waiting_greedy import optimal_tau

        kwargs["tau"] = optimal_tau(n)
    elif name in ("coin_flip_gathering", "random_receiver"):
        kwargs["seed"] = 77
    return registry.create(name, **kwargs)


def run_case(case_seed: int, engine_cls=VectorizedExecutor):
    family, name, n, sink, seed = derive_case(case_seed)
    nodes = list(range(n))
    algorithm = make_algorithm(name, n)
    horizon = default_horizon(algorithm, n)

    def derive_adversary():
        return make_adversary(
            family, nodes, seed=seed,
            max_horizon=max(horizon * 2, horizon + 1024), sink=sink,
        )

    adversary = derive_adversary()
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary, nodes, sink, horizon
    )
    source = committed if committed is not None else adversary
    result = engine_cls(nodes, sink, algorithm, knowledge=knowledge).run(
        source, max_interactions=horizon
    )
    # The run consumed its adversary (a vectorized run releases the
    # committed past), so the checks below read a twin
    # re-derived from the same (family, seed, max_horizon, sink): it
    # commits the same future.
    return family, name, n, sink, seed, derive_adversary(), result, horizon


@pytest.mark.slow
@pytest.mark.parametrize(
    "engine_cls",
    (VectorizedExecutor, partial(VectorizedExecutor, block_size=SMALL_BLOCK)),
    ids=("vectorized", "vectorized-small-blocks"),
)
@pytest.mark.parametrize("case_seed", range(CASE_COUNT))
class TestEngineInvariants:
    def test_data_conservation(self, case_seed, engine_cls):
        _, _, n, sink, _, _, result, _ = run_case(case_seed, engine_cls)
        coverage = {node: 1 for node in range(n)}
        owners = set(range(n))
        for transmission in result.transmissions:
            assert transmission.sender in owners
            assert transmission.receiver in owners
            coverage[transmission.receiver] += coverage[transmission.sender]
            owners.remove(transmission.sender)
        # Live coverages partition the origin set at every point reached.
        assert sum(coverage[node] for node in owners) == n
        assert coverage[sink] == result.sink_coverage
        assert set(result.remaining_owners) == owners - {sink}
        if result.terminated:
            assert owners == {sink}
            assert result.sink_coverage == n
            assert len(result.transmissions) == n - 1

    def test_sink_monotone_and_never_sends(self, case_seed, engine_cls):
        _, _, _, sink, _, _, result, _ = run_case(case_seed, engine_cls)
        assert all(t.sender != sink for t in result.transmissions)
        times = [t.time for t in result.transmissions]
        assert times == sorted(times)

    def test_no_transmission_after_data_loss(self, case_seed, engine_cls):
        _, _, _, _, _, _, result, _ = run_case(case_seed, engine_cls)
        lost_at = {}
        for transmission in result.transmissions:
            assert transmission.sender not in lost_at
            assert transmission.receiver not in lost_at
            lost_at[transmission.sender] = transmission.time

    def test_transmissions_ride_committed_interactions(self, case_seed, engine_cls):
        _, _, _, _, _, adversary, result, _ = run_case(case_seed, engine_cls)
        prefix = adversary.committed_prefix(result.interactions_used)
        for transmission in result.transmissions:
            assert prefix[transmission.time].pair == frozenset(
                (transmission.sender, transmission.receiver)
            )

    def test_committed_prefix_replay_reproduces_run(self, case_seed, engine_cls):
        family, name, n, sink, seed, adversary, result, horizon = run_case(
            case_seed, engine_cls
        )
        replay_source = adversary.committed_prefix(
            min(horizon, max(result.interactions_used, 1))
        )
        replayed = engine_cls(
            list(range(n)), sink, make_algorithm(name, n),
            knowledge=build_knowledge_for_random_run(
                make_algorithm(name, n), adversary, list(range(n)), sink,
                horizon,
            )[0],
        ).run(replay_source, max_interactions=result.interactions_used)
        assert replayed.transmissions == result.transmissions
        assert replayed.terminated == result.terminated
        assert replayed.duration == result.duration

    def test_oracle_answers_match_realized_schedule(self, case_seed, engine_cls):
        _, _, n, sink, _, adversary, result, _ = run_case(case_seed, engine_cls)
        window = max(result.interactions_used, 64)
        prefix = adversary.committed_prefix(window)
        probe = random.Random(case_seed)
        for _ in range(5):
            node = probe.randrange(n)
            if node == sink:
                continue
            after = probe.randrange(max(1, len(prefix)))
            answer = adversary.next_meeting(node, sink, after)
            expected = next(
                (
                    t
                    for t in range(after + 1, len(prefix))
                    if prefix[t].pair == frozenset((node, sink))
                ),
                None,
            )
            if expected is not None:
                assert answer == expected
            elif answer is not None:
                # The oracle may look beyond our window; the meeting it
                # reports must then lie past the window and be real.
                assert answer >= len(prefix)
                extended = adversary.committed_prefix(answer + 1)
                assert extended[answer].pair == frozenset((node, sink))

    def test_reference_engine_agrees(self, case_seed, engine_cls):
        family, name, n, sink, seed, _, result, horizon = run_case(
            case_seed, engine_cls
        )
        nodes = list(range(n))
        algorithm = make_algorithm(name, n)
        adversary = make_adversary(
            family, nodes, seed=seed,
            max_horizon=max(horizon * 2, horizon + 1024), sink=sink,
        )
        knowledge, committed = build_knowledge_for_random_run(
            algorithm, adversary, nodes, sink, horizon
        )
        source = committed if committed is not None else adversary
        reference = Executor(nodes, sink, algorithm, knowledge=knowledge).run(
            source, max_interactions=horizon
        )
        assert reference == result
