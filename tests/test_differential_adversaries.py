"""Differential tests: vectorized engine vs reference across adversary families.

``tests/test_vector_execution.py`` pins engine equality for every
registered algorithm; this suite extends the differential to every other
committed family — the non-uniform (Zipf/hub) adversary and the mobility
adversaries (random waypoint, community, trace replay) — across all
registered algorithms, multiple seeds and instance shapes, plus the
serial and multi-process sweep with a non-uniform adversary selected.
The vectorized engine runs at its default block window and at a window
so small that every trial crosses many block boundaries.
"""

import pytest

from block_window import block_window
from repro.adversaries import (
    CommunityAdversary,
    RandomWaypointAdversary,
    TraceReplayAdversary,
    make_adversary,
)
from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.algorithms.waiting_greedy import optimal_tau
from repro.core.algorithm import registry
from repro.core.execution import Executor
from repro.core.vector_execution import VectorizedExecutor
from repro.graph.traces import BodyAreaNetworkTrace, VehicularGridTrace
from repro.sim.batch import run_sweep_cell
from repro.sim.parallel import sweep_random_adversary
from repro.sim.runner import (
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
    execute_random_trial,
)

FAMILIES = ("zipf", "hub", "waypoint", "community")
SEEDS = (0, 1, 2)
N = 12

# The knowledge-heavy algorithms that gained decision kernels; kept out of
# the slow marker so the default run always exercises their full matrix.
KNOWLEDGE_HEAVY = ("spanning_tree", "full_knowledge", "future_broadcast")

#: Candidate legs, by the vectorized engine's block cap: the default
#: window (None), and one far below the first block, so that every trial
#: crosses many block boundaries.
CANDIDATES = {"vectorized": None, "vectorized-small-blocks": 16}


def make_algorithm(name: str, n: int):
    """Instantiate a registered algorithm with deterministic parameters."""
    kwargs = {}
    if name == "waiting_greedy":
        kwargs["tau"] = optimal_tau(n)
    elif name in ("coin_flip_gathering", "random_receiver"):
        kwargs["seed"] = 20_16
    return registry.create(name, **kwargs)


def candidate_trial(engine, name, family, seed):
    """The trial ``execute_random_trial`` runs, on a candidate leg."""
    algorithm = make_algorithm(name, N)
    nodes = list(range(N))
    horizon = default_horizon(algorithm, N)
    adversary = build_trial_adversary(family, nodes, seed, horizon, 0)
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary, nodes, 0, horizon
    )
    source = committed if committed is not None else adversary
    executor = VectorizedExecutor(nodes, 0, algorithm, knowledge=knowledge)
    with block_window(CANDIDATES[engine]):
        return executor.run(source, max_interactions=horizon)


@pytest.mark.slow
class TestAllAlgorithmsAllFamilies:
    """The full registry against every committed family, both engines."""

    @pytest.mark.parametrize("engine", sorted(CANDIDATES))
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_engines_agree(self, family, name, engine):
        for seed in SEEDS:
            reference, _ = execute_random_trial(
                make_algorithm(name, N), N, seed,
                engine="reference", adversary=family,
            )
            candidate = candidate_trial(engine, name, family, seed)
            assert candidate == reference, (engine, family, name, seed)


class TestKnowledgeHeavyAlgorithms:
    """The newly kernelized algorithms across every committed family.

    The slow full-registry matrix (:class:`TestAllAlgorithmsAllFamilies`)
    covers these three too, but they only just gained kernels — so the
    default ``-m "not slow"`` run pins them differentially against the
    reference engine on every committed family and on trace replay.
    """

    @pytest.mark.parametrize("engine", sorted(CANDIDATES))
    @pytest.mark.parametrize("family", ("uniform",) + FAMILIES)
    @pytest.mark.parametrize("name", KNOWLEDGE_HEAVY)
    def test_engines_agree(self, name, family, engine):
        for seed in SEEDS:
            reference, _ = execute_random_trial(
                make_algorithm(name, N), N, seed,
                engine="reference", adversary=family,
            )
            candidate = candidate_trial(engine, name, family, seed)
            assert candidate == reference, (engine, family, name, seed)

    @pytest.mark.parametrize("name", KNOWLEDGE_HEAVY)
    def test_trace_replay(self, name):
        from repro.sim.runner import build_knowledge_for_random_run

        trace = VehicularGridTrace(
            vehicle_count=8, grid_size=4, steps=300, seed=6
        ).build()
        nodes = list(trace.nodes)

        def run(engine_cls):
            algorithm = make_algorithm(name, len(nodes))
            adversary = TraceReplayAdversary(trace)
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, nodes, trace.sink, trace.length
            )
            source = committed if committed is not None else adversary
            return engine_cls(
                nodes, trace.sink, algorithm, knowledge=knowledge
            ).run(source, max_interactions=trace.length)

        assert run(VectorizedExecutor) == run(Executor)


class TestShapes:
    """Equality must hold across instance shapes, not just one n."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", (5, 9, 17))
    def test_engines_agree_across_n(self, family, n):
        reference, _ = execute_random_trial(
            Gathering(), n, seed=7, engine="reference", adversary=family
        )
        vectorized, _ = execute_random_trial(
            Gathering(), n, seed=7, engine="vectorized", adversary=family
        )
        assert vectorized == reference

    @pytest.mark.parametrize("family", FAMILIES)
    def test_non_default_sink(self, family):
        reference, _ = execute_random_trial(
            Waiting(), 10, seed=3, sink=4, engine="reference", adversary=family
        )
        vectorized, _ = execute_random_trial(
            Waiting(), 10, seed=3, sink=4, engine="vectorized", adversary=family
        )
        assert vectorized == reference


class TestMobilityAdversaryCommitment:
    """Committed-future properties the oracles and engines rely on."""

    @pytest.mark.parametrize("family", ("waypoint", "community"))
    def test_query_pattern_independence(self, family):
        nodes = list(range(10))
        a = make_adversary(family, nodes, seed=11, sink=0)
        b = make_adversary(family, nodes, seed=11, sink=0)
        # Grow b through oracle queries first: the committed future must
        # not depend on which query forced the growth.
        b.next_meeting(3, 0, after=0)
        b.next_meeting(7, 2, after=100)
        assert a.committed_prefix(800) == b.committed_prefix(800)

    @pytest.mark.parametrize("family", ("waypoint", "community"))
    def test_next_meeting_matches_committed_prefix(self, family):
        adversary = make_adversary(family, list(range(8)), seed=5, sink=0)
        t = adversary.next_meeting(3, 0, after=10)
        assert t is not None and t > 10
        prefix = adversary.committed_prefix(t + 1)
        assert prefix[t].pair == frozenset((3, 0))
        # No earlier meeting in (10, t).
        for earlier in range(11, t):
            assert prefix[earlier].pair != frozenset((3, 0))

    def test_waypoint_static_node_contacts(self):
        adversary = RandomWaypointAdversary(
            list(range(8)), seed=2, static_node=0
        )
        prefix = adversary.committed_prefix(400)
        assert any(interaction.involves(0) for interaction in prefix)

    def test_community_structure(self):
        adversary = CommunityAdversary(
            list(range(12)), communities=3, p_intra=0.9, seed=4
        )
        assert adversary.community_of(0) == adversary.community_of(3)
        assert adversary.community_of(0) != adversary.community_of(1)
        prefix = adversary.committed_prefix(3000)
        intra = sum(
            1
            for interaction in prefix
            if adversary.community_of(interaction.u)
            == adversary.community_of(interaction.v)
        )
        # ~0.9 of contacts stay within a community; far above the ~3/11
        # a uniform adversary would produce.
        assert intra / len(prefix) > 0.6


class TestTraceReplayDifferential:
    @pytest.mark.parametrize(
        "build",
        (
            lambda: VehicularGridTrace(
                vehicle_count=8, grid_size=4, steps=200, seed=6
            ).build(),
            lambda: BodyAreaNetworkTrace(
                sensor_count=6, cycles=25, seed=6
            ).build(),
        ),
        ids=("vehicular", "body_area"),
    )
    def test_engines_agree_on_trace_replay(self, build):
        trace = build()
        nodes = list(trace.nodes)
        for algorithm_cls in (Gathering, Waiting):
            reference = Executor(nodes, trace.sink, algorithm_cls()).run(
                TraceReplayAdversary(trace), max_interactions=trace.length
            )
            vectorized = VectorizedExecutor(nodes, trace.sink, algorithm_cls()).run(
                TraceReplayAdversary(trace), max_interactions=trace.length
            )
            direct = Executor(nodes, trace.sink, algorithm_cls()).run(
                trace.sequence
            )
            assert vectorized == reference == direct

    def test_replay_is_exact_and_exhausts(self):
        trace = VehicularGridTrace(
            vehicle_count=6, grid_size=4, steps=100, seed=1
        ).build()
        adversary = TraceReplayAdversary(trace)
        assert adversary.trace_length == trace.length
        assert adversary.committed_prefix(trace.length) == trace.sequence
        i, j = adversary.committed_index_block(0, trace.length + 500)
        assert len(i) == len(j) == trace.length
        assert adversary.interaction_at(trace.length, None) is None
        assert adversary.next_meeting(
            trace.nodes[1], trace.sink, after=trace.length
        ) is None


class TestSweepPathEquivalence:
    """Both engines and every worker count agree for every family."""

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", sorted(CANDIDATES))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sweep_reproduces_serial(self, family, engine):
        factory = lambda n: Gathering()
        serial = sweep_random_adversary(
            factory, ns=[8, 12], trials=4, master_seed=9,
            engine="reference", adversary=family,
        )
        # The sweep takes no window option: the helper shrinks the
        # engine's default.
        with block_window(CANDIDATES[engine]):
            candidate = sweep_random_adversary(
                factory, ns=[8, 12], trials=4, master_seed=9,
                engine="vectorized", adversary=family,
            )
        assert candidate.algorithm == serial.algorithm
        assert candidate.ns == serial.ns
        for point, expected in zip(candidate.points, serial.points):
            assert point.trials == expected.trials

    def test_parallel_sweep_with_mobility_adversary(self):
        factory = lambda n: Waiting()
        serial = sweep_random_adversary(
            factory, ns=[10, 12], trials=4, master_seed=3,
            engine="reference", adversary="community",
        )
        parallel = sweep_random_adversary(
            factory, ns=[10, 12], trials=4, master_seed=3,
            engine="vectorized", adversary="community", workers=2,
        )
        for point, expected in zip(parallel.points, serial.points):
            assert point.trials == expected.trials

    def test_run_sweep_cell_knowledge_algorithm(self):
        from repro.algorithms.waiting_greedy import WaitingGreedy

        factory = lambda n: WaitingGreedy(tau=optimal_tau(n))
        cell = run_sweep_cell(
            factory, 10, 3, master_seed=5, engine="vectorized",
            adversary="waypoint",
        )
        serial = sweep_random_adversary(
            factory, ns=[10], trials=3, master_seed=5,
            engine="reference", adversary="waypoint",
        )
        assert cell == serial.points[0].trials

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError):
            execute_random_trial(Gathering(), 8, seed=0, adversary="rush_hour")
        with pytest.raises(ValueError):
            sweep_random_adversary(
                lambda n: Gathering(), ns=[8], trials=2, adversary="rush_hour"
            )
