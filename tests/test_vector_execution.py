"""Differential and unit tests for the trial-vectorized engine.

The contract under test: :class:`~repro.core.vector_execution.
VectorizedExecutor` is **exactly** interchangeable with the reference
executor — same :class:`~repro.core.execution.ExecutionResult` including
the transmission log, seed for seed — for **every registered algorithm**
(all of which now carry decision kernels) under every committed adversary
family (uniform / zipf / hub / waypoint / community / trace replay).  The
few shapes no kernel can mirror (adaptive providers, mis-shaped oracles,
adversaries in another node order, overridden ``decide`` methods) fall
back to the reference engine — exactly, and *observably*:
every fallback carries a reason in ``VectorizedExecutor.last_fallbacks``
and sweep cells warn.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro

from block_window import block_window
from repro.adversaries import TraceReplayAdversary, make_adversary
from repro.adversaries.base import EventuallyPeriodicAdversary
from repro.adversaries.committed import COMMIT_CHUNK, CommittedBlockAdversary
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
from repro.core.vector_execution import (
    DEFAULT_BLOCK_SIZE,
    INITIAL_BLOCK,
    EngineFallbackWarning,
    VectorizedExecutor,
    _IndexRows,
)
from repro.graph.traces import VehicularGridTrace
from repro.offline.convergecast import opt
from repro.ratio import kernels as ratio_kernels
from repro.ratio.semantics import UNREACHABLE, opt_cost_from_end
from repro.sim.batch import run_sweep_cell
from repro.sim.parallel import sweep_random_adversary
from repro.sim.runner import (
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
    execute_random_trial,
)

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

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
               window=None):
    """One committed-adversary trial through an explicit engine class, its
    blocks capped at ``window`` interactions (None: the default cap)."""
    algorithm = make_algorithm(name, n)
    nodes = list(range(n))
    horizon = default_horizon(algorithm, n)
    adversary = build_trial_adversary(family, nodes, seed, horizon, sink, None)
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary, nodes, sink, horizon
    )
    source = committed if committed is not None else adversary
    executor = engine_cls(nodes, sink, algorithm, knowledge=knowledge)
    with block_window(window):
        return executor.run(source, max_interactions=horizon)


def fallback_reasons(executor):
    """The fallback reasons of the executor's last batch, in batch order."""
    return tuple(record.reason for record in executor.last_fallbacks)


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
                VectorizedExecutor, name, 14, seed=3, window=block_size
            )
            assert vectorized == reference, (name, block_size)

    def test_unbounded_provider_requires_horizon(self):
        adversary = make_adversary("uniform", list(range(6)), seed=0, sink=0)
        with pytest.raises(ConfigurationError):
            VectorizedExecutor(list(range(6)), 0, Gathering()).run(adversary)


class TestBatchDifferential:
    """Whole batches: ``VectorizedExecutor.run_many`` equals the reference
    ``Executor.run_many`` — the engine its fallbacks run on — trial for
    trial, while the trials of one batch mix adversary families and stop
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
        assert executor.last_fallbacks == ()

    @pytest.mark.parametrize("block_size", (None, 16))
    @pytest.mark.parametrize("family", ("uniform", "zipf", "waypoint"))
    @pytest.mark.parametrize("name", ("coin_flip_gathering", "random_receiver"))
    def test_stateful_kernels_draw_where_the_reference_decides(
        self, name, family, block_size
    ):
        """Each instance's stream is drawn exactly as often as the reference
        engine's ``decide`` draws it, trial by trial — not just to the same
        results."""
        n, sink = 12, 0
        nodes = list(range(n))
        seeds = (3, 4, 5, 6)

        def run(engine_cls):
            algorithms = [registry.create(name, seed=seed) for seed in seeds]
            draws = [0] * len(algorithms)
            for position, algorithm in enumerate(algorithms):
                def counted(draw=algorithm._rng.random, position=position):
                    draws[position] += 1
                    return draw()

                algorithm._rng.random = counted
            horizon = default_horizon(algorithms[0], n)
            trials = [
                BatchTrial(
                    source=build_trial_adversary(
                        family, nodes, seed, horizon, sink, None
                    ),
                    max_interactions=horizon,
                    algorithm=algorithm,
                )
                for seed, algorithm in zip(seeds, algorithms)
            ]
            executor = engine_cls(nodes, sink, algorithms[0])
            return executor, executor.run_many(trials), draws

        _, reference, reference_draws = run(Executor)
        with block_window(block_size):
            executor, vectorized, vectorized_draws = run(VectorizedExecutor)
        assert executor.last_fallbacks == ()
        assert min(reference_draws) > 0
        assert vectorized_draws == reference_draws
        assert vectorized == reference


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
        (reason,) = fallback_reasons(executor)
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
        (reason,) = fallback_reasons(executor)
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
        (reason,) = fallback_reasons(executor)
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
            (reason,) = fallback_reasons(vec_executor)
            assert reason.startswith("kernel precondition failed:"), reason
            assert "different sink" in reason

    def test_knowledge_outside_a_bundle_falls_back(self):
        """A knowledge object that answers meetTime queries but is no
        KnowledgeBundle names no oracle a kernel could mirror: the trial
        runs on the reference engine, with the same result."""

        class MeetTimes:
            def __init__(self, adversary):
                self.adversary = adversary

            def provides(self):
                return frozenset({"meetTime"})

            def meet_time(self, node, t):
                if node == 0:
                    return t
                meeting = self.adversary.next_meeting(node, 0, t)
                return 601 if meeting is None else meeting

        nodes = list(range(8))

        def run(engine_cls):
            adversary = make_adversary("uniform", nodes, seed=1, sink=0)
            twin = make_adversary("uniform", nodes, seed=1, sink=0)
            executor = engine_cls(
                nodes, 0, WaitingGreedy(tau=20), knowledge=MeetTimes(twin)
            )
            return executor, executor.run(adversary, max_interactions=600)

        executor, vectorized = run(VectorizedExecutor)
        _, reference = run(Executor)
        assert vectorized == reference
        assert vectorized.terminated
        assert fallback_reasons(executor) == (
            "kernel precondition failed: no meetTime oracle to mirror",
        )

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
        assert fallback_reasons(vec_executor) == (
            "adversary nodes differ from the executor's node order",
        )

    @pytest.mark.parametrize("name", ("gathering", "waiting_greedy"))
    def test_adversary_in_another_node_order_falls_back(self, name):
        """An adversary over a permutation of the executor's nodes draws
        its dense indices in its own order, so the trial runs on the
        reference engine, with the same result."""
        n = 12
        nodes = list(range(n))
        permuted = nodes[::-1]

        def run(engine_cls):
            algorithm = make_algorithm(name, n)
            horizon = default_horizon(algorithm, n)
            adversary = build_trial_adversary(
                "uniform", permuted, 3, horizon, 0, None
            )
            knowledge, _ = build_knowledge_for_random_run(
                algorithm, adversary, nodes, 0, horizon
            )
            executor = engine_cls(nodes, 0, algorithm, knowledge=knowledge)
            return executor, executor.run(adversary, max_interactions=horizon)

        executor, vectorized = run(VectorizedExecutor)
        _, reference = run(Executor)
        assert vectorized == reference
        assert vectorized.terminated
        assert fallback_reasons(executor) == (
            "adversary nodes differ from the executor's node order",
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
        assert fallback_reasons(executor) == (
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
        (reason,) = fallback_reasons(executor)
        assert "adaptive" in reason

    def test_shared_rng_algorithm_instance_runs_trial_after_trial(self):
        """One RNG-bearing instance shared by several trials draws its
        stream exactly as the reference engine does: the engine runs the
        trials one after another in batch order, kernel and fallback trials
        alike, so none has to fall back."""
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
        assert executor.last_fallbacks == ()

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
        assert executor.last_fallbacks == ()

        # A fallback trial between two kernel trials draws the shared
        # stream in its turn, too.
        nodes = list(range(5))

        def mixed():
            cycle = [(u, v) for u in nodes for v in nodes if u < v]
            sources = (
                build_trial_adversary("uniform", nodes, 3, 400, sink, None),
                EventuallyPeriodicAdversary(prefix=(), cycle=cycle),
                build_trial_adversary("uniform", nodes, 4, 400, sink, None),
            )
            return [
                BatchTrial(source=source, max_interactions=400)
                for source in sources
            ]

        expected = Executor(nodes, sink, RandomReceiver(seed=99)).run_many(
            mixed()
        )
        executor = VectorizedExecutor(nodes, sink, RandomReceiver(seed=99))
        assert executor.run_many(mixed()) == expected
        assert [record.position for record in executor.last_fallbacks] == [1]

    def test_mixed_batch_preserves_order(self):
        """Heterogeneous algorithms interleave in one batch — and, now that
        every algorithm has a kernel, all of them run on it."""
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
        assert executor.last_fallbacks == ()


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
        """The executor's own counter agrees: no trial fell back."""
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
        assert executor.last_fallbacks == ()

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

    def test_one_row_is_the_committed_block_itself(self):
        adversary = make_adversary("uniform", list(range(6)), seed=1, sink=0)
        rows_i, rows_j, lengths = CommittedBlockAdversary.committed_index_matrix(
            [adversary], 100, 300
        )
        block_i, block_j = adversary.committed_index_block(100, 300)
        assert rows_i.shape == rows_j.shape == (1, 200)
        assert list(lengths) == [200]
        # The committed dtype, and no copy.
        assert rows_i.dtype == rows_j.dtype == np.int32
        assert (rows_i[0] == block_i).all() and (rows_j[0] == block_j).all()
        assert np.shares_memory(rows_i, block_i)
        assert np.shares_memory(rows_j, block_j)
        # Read-only, so a caller cannot rewrite the committed future.
        for rows in (rows_i, rows_j):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 5
        assert adversary.committed_index_block(100, 101)[0][0] == block_i[0]

    def test_one_row_past_a_finite_end_is_short(self):
        trace = VehicularGridTrace(
            vehicle_count=6, grid_size=3, steps=10, seed=2
        ).build()
        short = TraceReplayAdversary(trace, nodes=list(trace.nodes))
        end = short.trace_length
        rows_i, rows_j, lengths = CommittedBlockAdversary.committed_index_matrix(
            [short], 3, end + 50
        )
        assert list(lengths) == [end - 3]
        assert rows_i.shape == rows_j.shape == (1, end - 3)
        block_i, block_j = short.committed_index_block(3, end + 50)
        assert (rows_i[0] == block_i).all() and (rows_j[0] == block_j).all()
        assert np.shares_memory(rows_i, block_i)
        assert rows_i.dtype == np.int32

    def test_one_row_of_a_finite_sequence_keeps_its_dtype(self):
        adversary = make_adversary("uniform", list(range(6)), seed=4, sink=0)
        sequence = adversary.committed_prefix(50)
        i, j = sequence.index_arrays({node: node for node in range(6)})
        rows = _IndexRows(i, j)
        rows_i, rows_j, lengths = CommittedBlockAdversary.committed_index_matrix(
            [rows], 10, 80
        )
        assert list(lengths) == [40]
        assert rows_i.dtype == rows_j.dtype == i.dtype == np.int64
        assert np.shares_memory(rows_i, i) and np.shares_memory(rows_j, j)
        assert (rows_i[0] == i[10:]).all()


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


class TestConsumedPast:
    """A run releases its adversaries' consumed past, with or without opt capture."""

    @staticmethod
    def adversary(n=12, seed=3):
        return make_adversary("uniform", list(range(n)), seed=seed, sink=0)

    def test_run_releases_the_consumed_past(self):
        adversary = self.adversary()
        with block_window(64):
            result = VectorizedExecutor(list(range(12)), 0, Gathering()).run(
                adversary, max_interactions=10_000
            )
        assert result.terminated and result.interactions_used > 64
        with pytest.raises(ConfigurationError, match="was released"):
            adversary.committed_prefix(result.interactions_used)

    def test_capture_opt_run_releases_the_consumed_past(self):
        # The optimum is read from the committed future at prepare, so the
        # capturing run consumes its adversary like any other run.
        adversary, twin = self.adversary(), self.adversary()
        with block_window(64):
            result = VectorizedExecutor(
                list(range(12)), 0, Gathering(), capture_opt=True
            ).run(adversary, max_interactions=10_000)
        used = result.interactions_used
        assert result.terminated and used > 64
        with pytest.raises(ConfigurationError, match="was released"):
            adversary.committed_prefix(used)
        assert result.opt_cost == opt_cost_from_end(
            opt(twin.committed_prefix(used), list(range(12)), 0)
        )

    @pytest.mark.parametrize(
        "order",
        (
            ("waiting_greedy", "gathering"),
            # Waiting Greedy's meet table scans the shared prefix from
            # time 0 at prepare, after the gathering trial has run.
            ("gathering", "waiting_greedy"),
            # The fallback's reference engine reads it from time 0.
            ("gathering", "unregistered"),
        ),
        ids="-then-".join,
    )
    @pytest.mark.parametrize("seed", (1, 5, 9))
    def test_shared_adversary_rows_match_reference(self, order, seed):
        # One adversary read by two trials of a batch: only the last of
        # them releases its past, since the first reads it from time 0.
        n = 16
        nodes = list(range(n))
        horizon = default_horizon(WaitingGreedy(tau=optimal_tau(n)), n)

        def trials(adversary):
            batch = []
            for name in order:
                knowledge = None
                if name == "waiting_greedy":
                    algorithm = WaitingGreedy(tau=optimal_tau(n))
                    knowledge, _ = build_knowledge_for_random_run(
                        algorithm, adversary, nodes, 0, horizon
                    )
                elif name == "gathering":
                    algorithm = Gathering()
                else:
                    algorithm = _UnregisteredGathering()
                batch.append(BatchTrial(
                    source=adversary, max_interactions=horizon,
                    algorithm=algorithm, knowledge=knowledge,
                ))
            return batch

        adversary = self.adversary(n, seed)
        executor = VectorizedExecutor(nodes, 0, Gathering())
        with block_window(16):
            vectorized = executor.run_many(trials(adversary))
        reference = Executor(nodes, 0, Gathering()).run_many(
            trials(self.adversary(n, seed))
        )
        assert vectorized == reference
        if order[-1] == "unregistered":
            # The last reader ran on the reference engine, which keeps it.
            assert len(executor.last_fallbacks) == 1
            adversary.committed_prefix(1)
        else:
            assert executor.last_fallbacks == ()
            with pytest.raises(ConfigurationError, match="was released"):
                adversary.committed_prefix(1)

    def test_waiting_greedy_floor_trails_its_meet_table(self):
        # Node 2 hands its data to node 1 at t = 0 and node 1 to the sink at
        # t = 1; the 4998 interactions of data-less nodes that follow let
        # the run's cursor overtake the meet table's first scan (4096
        # interactions).  At t = 5000 the table must then scan on from
        # 4096 to decide between nodes 3 and 4, behind the cursor.
        nodes = list(range(5))
        i = [1, 0] + [1] * 4998 + [3, 0, 0]
        j = [2, 1] + [2] * 4998 + [4, 3, 4]

        def run(engine_cls):
            adversary = TraceReplayAdversary.from_dense_indices(
                np.array(i), np.array(j), nodes
            )
            greedy = WaitingGreedy(tau=0)
            knowledge, _ = build_knowledge_for_random_run(
                greedy, adversary, nodes, 0, len(i)
            )
            return engine_cls(
                nodes, 0, greedy, knowledge=knowledge
            ).run(adversary, max_interactions=len(i))

        with block_window(16):
            vectorized = run(VectorizedExecutor)
        assert vectorized.duration == 5002
        assert vectorized == run(Executor)

    def test_waiting_greedy_rows_store_no_scan_ahead(self, meet_tables):
        # The meet tables scan past the run by at least one pair gap
        # (19,900 at n = 200).  The scan reads lookahead copies, so each
        # trial's adversary commits only the tau + 1 prefix the table reads
        # at prepare and the blocks the run reads, chunk-aligned.
        n = 200
        nodes = list(range(n))
        greedy = WaitingGreedy(tau=optimal_tau(n))
        horizon = default_horizon(greedy, n)
        adversaries = [
            build_trial_adversary("uniform", nodes, seed, horizon, 0, None)
            for seed in range(4)
        ]
        batch = []
        for adversary in adversaries:
            knowledge, _ = build_knowledge_for_random_run(
                greedy, adversary, nodes, 0, horizon
            )
            batch.append(BatchTrial(
                source=adversary, max_interactions=horizon,
                algorithm=greedy, knowledge=knowledge,
            ))
        results = VectorizedExecutor(nodes, 0, Gathering()).run_many(batch)
        for adversary, table, result in zip(adversaries, meet_tables, results):
            assert result.terminated
            cursor, window = 0, INITIAL_BLOCK
            while cursor + window < result.interactions_used:
                cursor += window
                window = min(2 * window, DEFAULT_BLOCK_SIZE)
            stored = max(greedy.tau + 1, cursor + window)
            chunks = -(-stored // COMMIT_CHUNK)
            assert adversary.committed_length <= chunks * COMMIT_CHUNK
            assert table.covered >= n * (n - 1) // 2 > chunks * COMMIT_CHUNK


class TestOptCapture:
    """Capture reads doubling prefixes of the committed future at prepare."""

    @pytest.mark.parametrize("finite_trace", (True, False))
    def test_capture_opt_stops_at_a_short_read(self, finite_trace, monkeypatch):
        # Node 6 never interacts, so no prefix settles the optimum: capture
        # reads doubling prefixes from 4n = 28 until one comes back short,
        # at a 40-interaction trace's end or at max_horizon = 70 of a longer
        # one, far below the horizon.
        nodes = list(range(7))
        length, max_horizon, reads = (
            (40, 10_000_000, [28, 40]) if finite_trace else (200, 70, [28, 56, 70])
        )
        rng = np.random.default_rng(4)
        i = rng.integers(0, 6, length)
        j = (i + rng.integers(1, 6, length)) % 6
        source = lambda: TraceReplayAdversary.from_dense_indices(
            i, j, nodes, max_horizon=max_horizon
        )
        lengths = []
        opt_end_matrix = ratio_kernels.opt_end_matrix

        def recording(i_nodes, j_nodes, row_lengths, n, sink):
            lengths.extend(row_lengths)
            return opt_end_matrix(i_nodes, j_nodes, row_lengths, n, sink)

        monkeypatch.setattr(ratio_kernels, "opt_end_matrix", recording)
        vectorized = VectorizedExecutor(
            nodes, 0, Gathering(), capture_opt=True
        ).run(source(), max_interactions=10_000)
        assert lengths == reads
        assert vectorized.opt_cost == UNREACHABLE
        assert vectorized == Executor(
            nodes, 0, Gathering(), capture_opt=True
        ).run(source(), max_interactions=10_000)

    @pytest.mark.parametrize("horizon", (-3, 0, 2, 100))
    def test_capture_opt_on_a_sequence_reads_up_to_the_horizon(self, horizon):
        # A finite sequence is read by slicing, where a negative stop would
        # wrap: a negative horizon must read nothing, as the reference
        # engine's empty window does.
        nodes = [0, 1, 2]
        sequence = InteractionSequence.from_pairs([(0, 1), (0, 2), (1, 2)] * 5)
        vectorized, reference = (
            engine(nodes, 0, Gathering(), capture_opt=True).run(
                sequence, max_interactions=horizon
            )
            for engine in (VectorizedExecutor, Executor)
        )
        assert vectorized == reference


BOUNDED_MEMORY_SCRIPT = """
import resource
import sys

limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

from repro.campaign.spec import algorithm_factory_for
from repro.sim.batch import run_sweep_cell

capture_opt = sys.argv[2] == "ratio-on"
metrics = run_sweep_cell(
    algorithm_factory_for(sys.argv[1]), 1000, 64, master_seed=0,
    engine="vectorized", capture_opt=capture_opt,
)
assert len(metrics) == 64
assert all(trial.terminated for trial in metrics)
if capture_opt:
    assert all(trial.competitive_ratio >= 1 for trial in metrics)
"""


@pytest.mark.slow
@pytest.mark.skipif(
    resource is None or not hasattr(resource, "RLIMIT_AS"),
    reason="needs resource.RLIMIT_AS",
)
@pytest.mark.parametrize("capture", ("ratio-off", "ratio-on"))
@pytest.mark.parametrize("algorithm", ("waiting", "waiting_greedy"))
def test_waiting_cell_at_n_1000_fits_in_512_mb_of_address_space(
    algorithm, capture
):
    # Each trial keeps only the committed window it has yet to consume, and
    # Waiting Greedy's meet tables keep none of their scan-ahead: the whole
    # cell's committed history would be several gigabytes.  Ratio capture
    # reads each optimum from a short prefix of the committed future at
    # prepare, so it keeps no past either.
    result = run_script(BOUNDED_MEMORY_SCRIPT, algorithm, capture)
    assert result.returncode == 0, result.stderr[-2000:]


CELL_PEAK_SCRIPT = """
import sys

from repro.campaign.spec import algorithm_factory_for
from repro.sim.batch import run_sweep_cell

metrics = run_sweep_cell(
    algorithm_factory_for(sys.argv[1]), 400, int(sys.argv[2]), master_seed=0,
    engine="vectorized",
)
assert all(trial.terminated for trial in metrics)
with open("/proc/self/status") as status:
    (peak,) = [line for line in status if line.startswith("VmHWM:")]
print(int(peak.split()[1]))  # kB
"""


@pytest.mark.slow
@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
)
@pytest.mark.parametrize("algorithm", ("waiting", "waiting_greedy"))
def test_cell_peak_memory_does_not_grow_with_trials(algorithm):
    # The engine holds one trial at a time: what a run commits goes with
    # its trial, so four times the trials add only their preparation.
    def peak_mb(trials):
        result = run_script(CELL_PEAK_SCRIPT, algorithm, str(trials))
        assert result.returncode == 0, result.stderr[-2000:]
        return int(result.stdout.split()[-1]) / 1024

    few, many = peak_mb(48), peak_mb(192)
    assert many <= few + 20, (few, many)


def run_script(script, *args):
    """Run ``script`` in a fresh interpreter that imports this repro."""
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={
            "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            # One BLAS thread: per-thread buffers are address space too.
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
        },
    )
