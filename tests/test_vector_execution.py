"""Differential and unit tests for the trial-vectorized engine.

The contract under test: :class:`~repro.core.vector_execution.
VectorizedExecutor` is **exactly** interchangeable with the reference
executor — same :class:`~repro.core.execution.ExecutionResult` including
the transmission log, seed for seed — for **every registered algorithm**
(all of which now carry decision kernels) under every committed adversary
family (uniform / zipf / hub / waypoint / community / trace replay).  The
few shapes no kernel can mirror (adaptive providers, mis-shaped oracles,
``enforce_oblivious`` runs, shared RNG instances, overridden ``decide``
methods) fall back to the reference engine — exactly, and *observably*:
every fallback carries a reason in ``VectorizedExecutor.last_fallbacks``
and sweep cells warn.
"""

import warnings

import numpy as np
import pytest

from repro.adversaries import TraceReplayAdversary, make_adversary
from repro.adversaries.base import EventuallyPeriodicAdversary
from repro.adversaries.committed import CommittedBlockAdversary
from repro.algorithms.gathering import Gathering
from repro.algorithms.kernels import KERNELS, get_kernel
from repro.algorithms.spanning_tree import SpanningTreeAggregation
from repro.algorithms.waiting import Waiting
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.algorithm import registry
from repro.core.data import MAX, MIN
from repro.core.execution import BatchTrial, Executor
from repro.core.exceptions import ConfigurationError, ModelViolationError
from repro.core.interaction import InteractionSequence
from repro.core.vector_execution import EngineFallbackWarning, VectorizedExecutor
from repro.graph.traces import VehicularGridTrace
from repro.sim.batch import run_sweep_cell
from repro.sim.parallel import sweep_random_adversary
from repro.sim.runner import (
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
    execute_random_trial,
)

FAMILIES = ("uniform", "zipf", "hub", "waypoint", "community")
#: Algorithms with a registered decision kernel — every registered
#: algorithm, since PR 7 closed the spanning_tree / full_knowledge /
#: future_broadcast gap.
KERNELIZED = sorted(KERNELS)
#: The algorithms whose kernels were the last to land (the knowledge-heavy
#: trio) — called out separately for the zero-fallback acceptance tests.
KNOWLEDGE_HEAVY = ("spanning_tree", "full_knowledge", "future_broadcast")


def make_algorithm(name: str, n: int):
    kwargs = {}
    if name == "waiting_greedy":
        kwargs["tau"] = optimal_tau(n)
    elif name in ("coin_flip_gathering", "random_receiver"):
        kwargs["seed"] = 20_16
    return registry.create(name, **kwargs)


def run_engine(engine_cls, name, n, seed, sink=0, family="uniform",
               block_size=None):
    """One committed-adversary trial through an explicit engine class."""
    algorithm = make_algorithm(name, n)
    nodes = list(range(n))
    horizon = default_horizon(algorithm, n)
    adversary = build_trial_adversary(family, nodes, seed, horizon, sink, None)
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary, nodes, sink, horizon
    )
    source = committed if committed is not None else adversary
    kwargs = {} if block_size is None else {"block_size": block_size}
    executor = engine_cls(nodes, sink, algorithm, knowledge=knowledge, **kwargs)
    return executor.run(source, max_interactions=horizon)


class TestKernelRegistry:
    def test_every_registered_algorithm_has_a_kernel(self):
        for name in registry.names():
            assert get_kernel(name) is not None, name

    def test_unknown_algorithm_raises_listing_registered_kernels(self):
        with pytest.raises(KeyError) as excinfo:
            get_kernel("no_such_algorithm")
        message = str(excinfo.value)
        assert "no_such_algorithm" in message
        for name in KERNELS:
            assert name in message, name


class TestKernelVsObjectDifferential:
    """Kernel decisions == object decisions, end to end, per family."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", KERNELIZED)
    def test_kernel_matches_object_form(self, family, name):
        for seed in (0, 1, 2):
            reference = run_engine(Executor, name, 13, seed, family=family)
            vectorized = run_engine(
                VectorizedExecutor, name, 13, seed, family=family
            )
            assert vectorized == reference, (family, name, seed)

    @pytest.mark.parametrize("name", KERNELIZED)
    def test_trace_replay_family(self, name):
        trace = VehicularGridTrace(
            vehicle_count=9, grid_size=4, steps=400, seed=3
        ).build()
        nodes = list(trace.nodes)

        def run(engine_cls):
            algorithm = make_algorithm(name, len(nodes))
            adversary = TraceReplayAdversary(trace)
            # The standard sim-layer oracle assembly works for any committed
            # adversary, trace replay included.
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, nodes, trace.sink, trace.length
            )
            source = committed if committed is not None else adversary
            return engine_cls(
                nodes, trace.sink, algorithm, knowledge=knowledge
            ).run(source, max_interactions=trace.length)

        assert run(VectorizedExecutor) == run(Executor)

    @pytest.mark.parametrize("name", ("gathering", "waiting"))
    def test_non_default_sink_and_shapes(self, name):
        for n, sink in ((5, 2), (9, 8), (17, 4)):
            reference = run_engine(Executor, name, n, seed=7, sink=sink)
            vectorized = run_engine(VectorizedExecutor, name, n, seed=7, sink=sink)
            assert vectorized == reference, (name, n, sink)

    def test_sequence_source(self):
        """Finite committed sequences run through the kernel path too."""
        nodes = list(range(10))
        adversary = make_adversary("uniform", nodes, seed=5, sink=0)
        sequence = adversary.committed_prefix(600)
        for algorithm_cls in (Gathering, Waiting):
            reference = Executor(nodes, 0, algorithm_cls()).run(sequence)
            vectorized = VectorizedExecutor(nodes, 0, algorithm_cls()).run(sequence)
            assert vectorized == reference, algorithm_cls
        # A sequence that runs dry before the horizon: interactions_used
        # and remaining_owners must match the reference exactly.
        short = InteractionSequence.from_pairs([(1, 2), (3, 4)])
        nodes = list(range(5))
        reference = Executor(nodes, 0, Waiting()).run(short, max_interactions=100)
        vectorized = VectorizedExecutor(nodes, 0, Waiting()).run(
            short, max_interactions=100
        )
        assert vectorized == reference
        assert not vectorized.terminated
        assert vectorized.remaining_owners == reference.remaining_owners
        # A generic provider has no committed future: the trial runs on the
        # reference engine inside the vectorized one, with the same result.
        periodic = lambda: EventuallyPeriodicAdversary(
            prefix=[(1, 2), (3, 4)], cycle=[(2, 3), (1, 0), (2, 0), (4, 0), (3, 0)]
        )
        reference = Executor(nodes, 0, Gathering()).run(
            periodic(), max_interactions=50
        )
        vectorized = VectorizedExecutor(nodes, 0, Gathering()).run(
            periodic(), max_interactions=50
        )
        assert vectorized == reference

    def test_initial_payloads_and_aggregation(self):
        nodes = list(range(8))
        adversary = make_adversary("uniform", nodes, seed=9, sink=0)
        sequence = adversary.committed_prefix(400)
        payloads = {node: float(node) * 1.5 - 4.0 for node in nodes}
        for aggregation, expected in ((MAX, max), (MIN, min)):
            reference = Executor(nodes, 0, Gathering(), aggregation=aggregation).run(
                sequence, initial_payloads=payloads
            )
            vectorized = VectorizedExecutor(
                nodes, 0, Gathering(), aggregation=aggregation
            ).run(sequence, initial_payloads=payloads)
            assert vectorized == reference
            assert vectorized.sink_payload == expected(payloads.values())

    @pytest.mark.parametrize("block_size", (64, 1000, 4096, 1 << 17))
    def test_block_size_independence(self, block_size):
        """Block boundaries are consumption windows, never semantics."""
        for name in ("gathering", "waiting", "waiting_greedy"):
            reference = run_engine(Executor, name, 14, seed=3)
            vectorized = run_engine(
                VectorizedExecutor, name, 14, seed=3, block_size=block_size
            )
            assert vectorized == reference, (name, block_size)

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorizedExecutor(list(range(4)), 0, Gathering(), block_size=0)

    def test_unbounded_provider_requires_horizon(self):
        adversary = make_adversary("uniform", list(range(6)), seed=0, sink=0)
        with pytest.raises(ConfigurationError):
            VectorizedExecutor(list(range(6)), 0, Gathering()).run(adversary)


class TestBatchDifferential:
    """Whole batches: ``VectorizedExecutor.run_many`` equals the reference
    ``Executor.run_many`` — the engine its fallbacks run on — trial for
    trial, while the rows of one lockstep mix adversary families and stop
    at different budgets."""

    @staticmethod
    def batch(name, n, seed):
        trials = []
        for row in range(4):
            algorithm = make_algorithm(name, n)
            horizon = default_horizon(algorithm, n) // (row + 1)
            family = FAMILIES[(seed + row) % len(FAMILIES)]
            adversary = build_trial_adversary(
                family, list(range(n)), 100 * seed + row, horizon, 0, None
            )
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, list(range(n)), 0, horizon
            )
            trials.append(
                BatchTrial(
                    source=committed if committed is not None else adversary,
                    max_interactions=horizon,
                    algorithm=algorithm,
                    knowledge=knowledge,
                )
            )
        return trials

    @pytest.mark.parametrize("name", KERNELIZED)
    @pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
    def test_run_many_matches_reference(self, name, seed):
        n = 14
        nodes = list(range(n))

        def run_batch(engine_cls):
            # Like a sweep cell, the executor's own algorithm and knowledge
            # are the first trial's.
            trials = self.batch(name, n, seed)
            executor = engine_cls(
                nodes, 0, trials[0].algorithm, knowledge=trials[0].knowledge,
                capture_opt=True,
            )
            return executor, executor.run_many(trials)

        _, reference = run_batch(Executor)
        executor, vectorized = run_batch(VectorizedExecutor)
        assert vectorized == reference
        assert executor.last_fallback_count == 0


class _UnregisteredGathering(Gathering):
    """A behavioural clone of Gathering whose name owns no kernel."""

    name = "unregistered_probe"


class TestModelEnforcement:
    """Model violations raise exactly as on the reference engine — also
    for subclasses that override the registered decide() under its name."""

    @staticmethod
    def _violation(engine_cls, algorithm, nodes, pairs):
        sequence = InteractionSequence.from_pairs(pairs)
        with pytest.raises(ModelViolationError) as excinfo:
            engine_cls(nodes, 0, algorithm).run(sequence)
        return str(excinfo.value)

    def test_sink_sender_rejected(self):
        class SinkSender(Gathering):
            name = "gathering"

            def decide(self, first, second, time):
                # Receiver is whichever node is NOT the sink: sink must send.
                return second.id if first.is_sink else first.id

        messages = {
            self._violation(engine_cls, SinkSender(), [0, 1], [(0, 1)])
            for engine_cls in (Executor, VectorizedExecutor)
        }
        assert len(messages) == 1

    def test_foreign_receiver_rejected(self):
        class Outsider(Gathering):
            name = "gathering"

            def decide(self, first, second, time):
                return 99

        messages = {
            self._violation(engine_cls, Outsider(), [0, 1, 2], [(1, 2)])
            for engine_cls in (Executor, VectorizedExecutor)
        }
        assert len(messages) == 1

    def test_constructor_validations_match_reference(self):
        sequence = InteractionSequence.from_pairs([(0, 1)])
        for engine_cls in (Executor, VectorizedExecutor):
            with pytest.raises(ModelViolationError):
                engine_cls([0, 1], 9, Gathering()).run(sequence)
            with pytest.raises(ModelViolationError):
                engine_cls([0], 0, Gathering()).run(sequence)

    def test_overridden_decide_falls_back(self):
        class Abstainer(Gathering):
            name = "gathering"

            def decide(self, first, second, time):
                return None

        sequence = InteractionSequence.from_pairs([(0, 1), (0, 2), (1, 2)])
        reference = Executor([0, 1, 2], 0, Abstainer()).run(sequence)
        executor = VectorizedExecutor([0, 1, 2], 0, Abstainer())
        assert executor.run(sequence) == reference
        assert reference.transmission_count == 0
        (reason,) = executor.last_fallback_reasons
        assert "Abstainer" in reason

    def test_same_name_subclass_with_own_tree_falls_back(self):
        """Not only decide(): a subclass that builds another tree under the
        name 'spanning_tree' must not run the BFS-tree kernel."""

        class PathTree(SpanningTreeAggregation):
            def _ensure_tree(self, view):
                if self._parent is None:
                    nodes = sorted(view.knowledge.underlying_graph().nodes)
                    self._parent = {v: v - 1 if v else None for v in nodes}
                    self._children = {
                        v: {v + 1} if v + 1 < len(nodes) else set()
                        for v in nodes
                    }

        nodes = list(range(8))

        def run(engine_cls, algorithm):
            horizon = default_horizon(algorithm, len(nodes))
            adversary = build_trial_adversary(
                "uniform", nodes, 4, horizon, 0, None
            )
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, nodes, 0, horizon
            )
            source = committed if committed is not None else adversary
            executor = engine_cls(nodes, 0, algorithm, knowledge=knowledge)
            return executor, executor.run(source, max_interactions=horizon)

        _, reference = run(Executor, PathTree())
        executor, vectorized = run(VectorizedExecutor, PathTree())
        assert vectorized == reference
        (reason,) = executor.last_fallback_reasons
        assert "PathTree" in reason
        # The BFS-tree kernel would have produced the stock algorithm's run.
        _, stock = run(Executor, SpanningTreeAggregation())
        assert stock != reference


class TestFallback:
    """The few trial shapes the kernels cannot mirror run through the
    reference engine — exactly, and with an observable per-trial reason."""

    def test_unregistered_algorithm_falls_back_with_reason(self):
        nodes = list(range(10))
        horizon = default_horizon(Gathering(), 10)

        def run(engine_cls):
            adversary = build_trial_adversary(
                "uniform", nodes, 1, horizon, 0, None
            )
            executor = engine_cls(nodes, 0, _UnregisteredGathering())
            return executor, executor.run(adversary, max_interactions=horizon)

        executor, vectorized = run(VectorizedExecutor)
        _, reference = run(Executor)
        assert vectorized == reference
        assert executor.last_fallback_count == 1
        (reason,) = executor.last_fallback_reasons
        assert "unregistered_probe" in reason
        assert "registered kernels" in reason
        # The catalog in the reason names every actual kernel.
        for name in KERNELS:
            assert name in reason, name

    def test_mismatched_oracle_sink_falls_back(self):
        """A meetTime oracle about a *different* sink cannot be mirrored."""
        from repro.knowledge import KnowledgeBundle, MeetTimeKnowledge

        nodes = list(range(12))
        for seed in range(4):
            def run(engine_cls):
                adversary = make_adversary("uniform", nodes, seed=seed, sink=0)
                knowledge = KnowledgeBundle(
                    MeetTimeKnowledge(adversary, 3, horizon=600, strict=False)
                )
                executor = engine_cls(
                    nodes, 0, WaitingGreedy(tau=50), knowledge=knowledge
                )
                return executor, executor.run(adversary, max_interactions=600)

            vec_executor, vectorized = run(VectorizedExecutor)
            _, reference = run(Executor)
            assert vectorized == reference, seed
            # The kernel's rejection message survives into the report.
            (reason,) = vec_executor.last_fallback_reasons
            assert reason.startswith("kernel precondition failed:"), reason
            assert "different sink" in reason

    def test_adversary_node_mismatch_reports_reason(self):
        """An adversary naming nodes outside the executor's set routes to
        the fallback with a reason, then behaves exactly like the reference
        engine (crash or survive)."""
        executor_nodes = [0, 1, 2, 3]

        def run(engine_cls):
            adversary = make_adversary(
                "uniform", [0, 1, 2, 3, 4], seed=0, sink=0
            )
            executor = engine_cls(executor_nodes, 0, Gathering())
            try:
                return executor, ("ok", executor.run(
                    adversary, max_interactions=200
                ))
            except Exception as exc:
                return executor, ("error", type(exc).__name__)

        vec_executor, vectorized = run(VectorizedExecutor)
        _, reference = run(Executor)
        assert vectorized == reference
        assert vec_executor.last_fallback_reasons == (
            "adversary node set is not a subset of the executor's node set",
        )

    def test_sequence_with_foreign_node_falls_back(self):
        """A sequence naming nodes outside the instance must behave like the
        per-interaction engines (which only fail if the run reaches it)."""
        sequence = InteractionSequence.from_pairs([(0, 1), (0, 2), (0, 99)])
        nodes = [0, 1, 2]
        reference = Executor(nodes, 0, Gathering()).run(sequence)
        executor = VectorizedExecutor(nodes, 0, Gathering())
        vectorized = executor.run(sequence)
        assert vectorized == reference
        assert vectorized.terminated
        assert executor.last_fallback_reasons == (
            "interaction sequence mentions nodes outside the executor's "
            "node set",
        )

    def test_adaptive_provider_falls_back(self):
        from repro.adversaries.constructions import Theorem1Adversary

        nodes = ["a", "b", "s"]
        reference = Executor(nodes, "s", Gathering()).run(
            Theorem1Adversary(), max_interactions=500
        )
        executor = VectorizedExecutor(nodes, "s", Gathering())
        vectorized = executor.run(Theorem1Adversary(), max_interactions=500)
        assert vectorized == reference
        (reason,) = executor.last_fallback_reasons
        assert "adaptive" in reason

    def test_enforce_oblivious_falls_back(self):
        result = run_engine(Executor, "gathering", 10, seed=2)
        nodes = list(range(10))
        adversary = build_trial_adversary(
            "uniform", nodes, 2, default_horizon(Gathering(), 10), 0, None
        )
        executor = VectorizedExecutor(
            nodes, 0, Gathering(), enforce_oblivious=True
        )
        vectorized = executor.run(
            adversary, max_interactions=default_horizon(Gathering(), 10)
        )
        assert vectorized == result
        (reason,) = executor.last_fallback_reasons
        assert "enforce_oblivious" in reason

    def test_shared_rng_algorithm_instance_falls_back(self):
        """One RNG-bearing instance shared by several trials must not enter
        the lockstep: interleaving rows would consume the shared stream in
        a different order than sequential per-trial execution."""
        from repro.algorithms.random_baseline import RandomReceiver

        n, sink = 14, 0
        nodes = list(range(n))
        horizon = default_horizon(RandomReceiver(), n)

        def batch(algorithm):
            trials = []
            for seed in (3, 4, 5):
                adversary = build_trial_adversary(
                    "uniform", nodes, seed, horizon, sink, None
                )
                trials.append(
                    BatchTrial(source=adversary, max_interactions=horizon)
                )
            return trials

        # The expectation: the same shared instance run trial after trial
        # on the reference engine.
        shared_ref = RandomReceiver(seed=99)
        expected = [
            Executor(nodes, sink, shared_ref).run(
                trial.source, max_interactions=trial.max_interactions
            )
            for trial in batch(shared_ref)
        ]
        shared_vec = RandomReceiver(seed=99)
        executor = VectorizedExecutor(nodes, sink, shared_vec)
        actual = executor.run_many(batch(shared_vec))
        assert actual == expected
        assert executor.last_fallback_count == 3
        for reason in executor.last_fallback_reasons:
            assert "shared across 3 trials" in reason

        # Distinct per-trial instances do take the kernel path and agree too.
        def per_trial():
            return [
                BatchTrial(
                    source=build_trial_adversary(
                        "uniform", nodes, seed, horizon, sink, None
                    ),
                    max_interactions=horizon,
                    algorithm=RandomReceiver(seed=seed),
                )
                for seed in (3, 4, 5)
            ]

        executor = VectorizedExecutor(nodes, sink, RandomReceiver(seed=0))
        assert executor.run_many(per_trial()) == Executor(
            nodes, sink, RandomReceiver(seed=0)
        ).run_many(per_trial())
        assert executor.last_fallback_count == 0

    def test_mixed_batch_preserves_order(self):
        """Heterogeneous algorithms interleave in one batch — and, now that
        every algorithm has a kernel, all of them take the lockstep."""
        n, sink = 11, 0
        nodes = list(range(n))
        names = ["gathering", "spanning_tree", "waiting", "full_knowledge"]
        trials = []
        expected = []
        for position, name in enumerate(names):
            algorithm = make_algorithm(name, n)
            horizon = default_horizon(algorithm, n)
            adversary = build_trial_adversary(
                "uniform", nodes, 40 + position, horizon, sink, None
            )
            knowledge, committed = build_knowledge_for_random_run(
                algorithm, adversary, nodes, sink, horizon
            )
            source = committed if committed is not None else adversary
            trials.append(
                BatchTrial(
                    source=source,
                    max_interactions=horizon,
                    algorithm=algorithm,
                    knowledge=knowledge,
                )
            )
            algorithm2 = make_algorithm(name, n)
            adversary2 = build_trial_adversary(
                "uniform", nodes, 40 + position, horizon, sink, None
            )
            knowledge2, committed2 = build_knowledge_for_random_run(
                algorithm2, adversary2, nodes, sink, horizon
            )
            source2 = committed2 if committed2 is not None else adversary2
            expected.append(
                Executor(nodes, sink, algorithm2, knowledge=knowledge2).run(
                    source2, max_interactions=horizon
                )
            )
        executor = VectorizedExecutor(nodes, sink, make_algorithm("gathering", n))
        assert executor.run_many(trials) == expected
        assert executor.last_fallback_count == 0


class TestFallbackReporting:
    """The silent-downgrade bugfix: batched cells surface every fallback."""

    def test_cell_with_fallbacks_warns_and_tags_metrics(self, monkeypatch):
        """A pre-fix fallback cell (kernel artificially removed) now reports:
        one warning per cell, and a reason tag on every affected trial."""
        from repro.algorithms import kernels as kernels_module

        monkeypatch.delitem(kernels_module.KERNELS, "spanning_tree")
        factory = lambda n: make_algorithm("spanning_tree", n)
        with pytest.warns(EngineFallbackWarning, match=r"4 of 4 trials"):
            metrics = run_sweep_cell(
                factory, 10, 4, master_seed=3, engine="vectorized"
            )
        assert len(metrics) == 4
        for trial_metrics in metrics:
            reason = trial_metrics.extra["engine_fallback"]
            assert "spanning_tree" in reason
            assert "registered kernels" in reason

    @pytest.mark.parametrize("name", KNOWLEDGE_HEAVY)
    def test_newly_kerneled_cells_run_with_zero_fallbacks(self, name):
        """Acceptance: the knowledge-heavy trio runs trial-vectorized with
        fallback_count == 0 on the default sweep, metric-identical to the
        reference engine, without warnings or metric tags."""
        factory = lambda n: make_algorithm(name, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            metrics = run_sweep_cell(
                factory, 12, 5, master_seed=7, engine="vectorized"
            )
        assert all(
            "engine_fallback" not in trial_metrics.extra
            for trial_metrics in metrics
        )
        reference = run_sweep_cell(
            factory, 12, 5, master_seed=7, engine="reference"
        )
        assert metrics == reference

    @pytest.mark.parametrize("name", KNOWLEDGE_HEAVY)
    def test_zero_fallbacks_at_executor_level(self, name):
        """The executor's own counter agrees: no trial left the lockstep."""
        algorithm = make_algorithm(name, 12)
        nodes = list(range(12))
        horizon = default_horizon(algorithm, 12)
        adversary = build_trial_adversary("uniform", nodes, 0, horizon, 0, None)
        knowledge, committed = build_knowledge_for_random_run(
            algorithm, adversary, nodes, 0, horizon
        )
        source = committed if committed is not None else adversary
        executor = VectorizedExecutor(nodes, 0, algorithm, knowledge=knowledge)
        executor.run(source, max_interactions=horizon)
        assert executor.last_fallback_count == 0
        assert executor.last_fallback_reasons == ()

    def test_reference_engine_cells_report_nothing(self):
        """Fallback telemetry is a vectorized-engine concept; reference
        cells carry no tags."""
        factory = lambda n: make_algorithm("spanning_tree", n)
        metrics = run_sweep_cell(factory, 10, 3, master_seed=1, engine="reference")
        assert all(
            "engine_fallback" not in trial_metrics.extra
            for trial_metrics in metrics
        )


class TestCommittedIndexMatrix:
    def test_stacks_blocks_with_padding(self):
        nodes = list(range(6))
        long = make_adversary("uniform", nodes, seed=1, sink=0)
        trace = VehicularGridTrace(
            vehicle_count=6, grid_size=3, steps=10, seed=2
        ).build()
        short = TraceReplayAdversary(trace, nodes=list(trace.nodes))
        matrix_i, matrix_j, lengths = (
            CommittedBlockAdversary.committed_index_matrix(
                [long, short], 0, max(40, short.trace_length + 5)
            )
        )
        assert matrix_i.shape == matrix_j.shape
        assert matrix_i.shape[0] == 2
        assert lengths[0] == matrix_i.shape[1]
        assert lengths[1] == short.trace_length
        # Padding beyond a short row is the pad value, valid cells are not.
        assert (matrix_i[1, int(lengths[1]):] == -1).all()
        expected_i, expected_j = long.committed_index_block(0, int(lengths[0]))
        assert (matrix_i[0] == expected_i).all()
        assert (matrix_j[0] == expected_j).all()

    def test_per_row_stops(self):
        nodes = list(range(5))
        adversaries = [
            make_adversary("uniform", nodes, seed=s, sink=0) for s in (1, 2, 3)
        ]
        matrix_i, _, lengths = CommittedBlockAdversary.committed_index_matrix(
            adversaries, 10, [30, 10, 25]
        )
        assert list(lengths) == [20, 0, 15]
        assert matrix_i.shape[1] == 20

    def test_stop_count_mismatch_rejected(self):
        nodes = list(range(4))
        adversaries = [make_adversary("uniform", nodes, seed=1, sink=0)]
        with pytest.raises(ConfigurationError):
            CommittedBlockAdversary.committed_index_matrix(
                adversaries, 0, [10, 20]
            )


class TestSweepPaths:
    """The sim layer routes engine='vectorized' everywhere."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_sweep_cell_matches_reference(self, family):
        factory = lambda n: Waiting()
        cell = run_sweep_cell(
            factory, 12, 4, master_seed=11, engine="vectorized",
            adversary=family,
        )
        serial = sweep_random_adversary(
            factory, ns=[12], trials=4, master_seed=11,
            engine="reference", adversary=family,
        )
        assert cell == serial.points[0].trials

    def test_block_size_threads_through_cell(self):
        factory = lambda n: Gathering()
        default = run_sweep_cell(
            factory, 10, 3, master_seed=1, engine="vectorized"
        )
        tuned = run_sweep_cell(
            factory, 10, 3, master_seed=1, engine="vectorized", block_size=128
        )
        assert tuned == default
