"""Trial runners and sweep results for the randomized-adversary experiments.

The runner knows how to assemble, for any registered algorithm, the
knowledge oracles it requires on top of the randomized adversary (Section 4
of the paper), run one trial, and aggregate trials over an ``n`` sweep
(the sweep itself is :func:`repro.sim.parallel.sweep_random_adversary`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..adversaries.committed import CommittedBlockAdversary
from ..adversaries.factory import ADVERSARY_FAMILIES, make_adversary
from ..core.algorithm import (
    DODAAlgorithm,
    KNOWLEDGE_FULL,
    KNOWLEDGE_FUTURE,
    KNOWLEDGE_MEET_TIME,
    KNOWLEDGE_UNDERLYING_GRAPH,
)
from ..core.data import NodeId
from ..core.execution import ExecutionResult, Executor
from ..core.interaction import InteractionSequence
from ..core.vector_execution import VectorizedExecutor
from ..knowledge import (
    FullKnowledge,
    FutureKnowledge,
    KnowledgeBundle,
    MeetTimeKnowledge,
    UnderlyingGraphKnowledge,
)
from ..analysis.statistics import SampleSummary, summarize_sample
from .metrics import TrialMetrics, mean_duration, termination_rate
from .results import ResultTable
from .seeding import derive_seed

AlgorithmFactory = Callable[[int], DODAAlgorithm]

#: The two interchangeable execution engines.  ``reference`` is the
#: semantics oracle (:class:`~repro.core.execution.Executor`);
#: ``vectorized`` is the trial-vectorized engine
#: (:class:`~repro.core.vector_execution.VectorizedExecutor`), which runs
#: each trial of a sweep cell over numpy blocks of its committed future and
#: falls back to the reference engine for the trials its kernels cannot
#: mirror.  Both
#: produce identical results seed for seed.
ENGINES = {
    "reference": Executor,
    "vectorized": VectorizedExecutor,
}


def resolve_engine(engine: str):
    """Map an engine name to its executor class.

    ``"fast"`` names a retired engine; it is still read as ``vectorized``
    so campaign stores and specs that recorded it keep working.

    Raises:
        ValueError: if ``engine`` is not a known engine name.
    """
    if engine == "fast":
        return VectorizedExecutor
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; available: {sorted(ENGINES)}"
        ) from None


def default_horizon(algorithm: DODAAlgorithm, n: int, safety: float = 8.0) -> int:
    """A horizon comfortably above the algorithm's expected termination time.

    Uses the paper's expectations: ``n² log n`` for Waiting-like algorithms,
    ``n²`` for Gathering, ``n^{3/2}√log n`` for Waiting Greedy and
    ``n log n`` for the full/future knowledge algorithms; everything is then
    multiplied by a safety factor so that non-termination within the horizon
    is a strong signal rather than an artefact.
    """
    log_n = max(1.0, math.log(n))
    by_name = {
        "waiting": n * n * log_n,
        "gathering": n * n,
        "coin_flip_gathering": 2 * n * n,
        "random_receiver": n * n * log_n,
        "waiting_greedy": n ** 1.5 * math.sqrt(log_n) + n * n,
        "full_knowledge": n * log_n,
        "future_broadcast": n * log_n,
        "spanning_tree": n * n * log_n,
    }
    base = by_name.get(algorithm.name, n * n * log_n)
    return int(math.ceil(safety * base)) + 16


def build_knowledge_for_random_run(
    algorithm: DODAAlgorithm,
    adversary: CommittedBlockAdversary,
    nodes: Sequence[NodeId],
    sink: NodeId,
    horizon: int,
) -> Tuple[Optional[KnowledgeBundle], Optional[InteractionSequence]]:
    """Assemble the oracles the algorithm needs on top of the adversary.

    Works for any committed adversary (uniform, non-uniform, mobility):
    ``meetTime`` queries go to the adversary's ``next_meeting`` and the
    ``future``/``full_knowledge`` oracles replay its committed prefix.
    Returns the knowledge bundle (or None) and, when the algorithm requires
    a committed finite sequence (``future`` or ``full_knowledge``), the
    pre-drawn sequence the executor must replay instead of querying the
    adversary lazily.

    Nothing here builds per-interaction objects or a graph: the committed
    prefix is backed by copies of the adversary's index buffers
    (:meth:`~repro.adversaries.committed.CommittedBlockAdversary.
    committed_prefix`), and G-bar is the implicit complete graph
    (:meth:`~repro.knowledge.underlying_graph.UnderlyingGraphKnowledge.
    complete`).  Object-form readers (the reference engine) materialise
    either on first use.
    """
    required = set(algorithm.requires)
    if not required:
        return None, None
    oracles: List[Any] = []
    committed: Optional[InteractionSequence] = None
    if KNOWLEDGE_FUTURE in required or KNOWLEDGE_FULL in required:
        committed = adversary.committed_prefix(horizon)
    if KNOWLEDGE_MEET_TIME in required:
        source = committed if committed is not None else adversary
        oracles.append(
            MeetTimeKnowledge(source, sink, horizon=horizon, strict=False)
        )
    if KNOWLEDGE_FUTURE in required:
        assert committed is not None
        oracles.append(FutureKnowledge(committed))
    if KNOWLEDGE_FULL in required:
        assert committed is not None
        oracles.append(FullKnowledge(committed))
    if KNOWLEDGE_UNDERLYING_GRAPH in required:
        # Every named adversary family can eventually produce any pair
        # (uniform/non-uniform draws, waypoint proximity, community mixture),
        # so the footprint is the complete graph.
        oracles.append(UnderlyingGraphKnowledge.complete(nodes))
    return KnowledgeBundle(*oracles), committed


def build_trial_adversary(
    adversary: str,
    nodes: Sequence[NodeId],
    seed: int,
    horizon: int,
    sink: NodeId,
    adversary_params: Optional[Dict[str, Any]] = None,
) -> CommittedBlockAdversary:
    """The committed adversary of one trial, with the standard safety margin."""
    return make_adversary(
        adversary,
        nodes,
        seed=seed,
        max_horizon=max(horizon * 2, horizon + 1024),
        sink=sink,
        params=adversary_params,
    )


def execute_random_trial(
    algorithm: DODAAlgorithm,
    n: int,
    seed: int,
    horizon: Optional[int] = None,
    sink: NodeId = 0,
    engine: str = "reference",
    adversary: str = "uniform",
    adversary_params: Optional[Dict[str, Any]] = None,
    capture_opt: bool = False,
) -> Tuple[ExecutionResult, int]:
    """Run one committed-adversary trial and return the raw execution result.

    This is the differential-testing entry point: for a given ``(algorithm,
    n, seed, horizon, adversary)`` the ``reference`` and ``vectorized``
    engines must return equal :class:`~repro.core.execution.ExecutionResult`
    objects, including the transmission log.  ``adversary`` names a family
    from :data:`repro.adversaries.factory.ADVERSARY_FAMILIES` (uniform,
    zipf, hub, waypoint, community).  ``capture_opt=True`` additionally
    evaluates the offline-optimum baseline on the committed window the
    trial consumed (``ExecutionResult.opt_cost``), identically on every
    engine.  Returns ``(result, horizon)``.
    """
    executor_cls = resolve_engine(engine)
    nodes = list(range(n))
    if sink not in nodes:
        raise ValueError("sink must be one of the nodes 0..n-1")
    if horizon is None:
        horizon = default_horizon(algorithm, n)
    adversary_obj = build_trial_adversary(
        adversary, nodes, seed, horizon, sink, adversary_params
    )
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary_obj, nodes, sink, horizon
    )
    executor = executor_cls(
        nodes, sink, algorithm, knowledge=knowledge, capture_opt=capture_opt
    )
    if committed is not None:
        result = executor.run(committed, max_interactions=horizon)
    else:
        result = executor.run(adversary_obj, max_interactions=horizon)
    return result, horizon


def run_random_trial(
    algorithm: DODAAlgorithm,
    n: int,
    seed: int,
    horizon: Optional[int] = None,
    sink: NodeId = 0,
    extra: Optional[Dict[str, Any]] = None,
    engine: str = "reference",
    adversary: str = "uniform",
    adversary_params: Optional[Dict[str, Any]] = None,
    capture_opt: bool = False,
) -> TrialMetrics:
    """Run one trial of ``algorithm`` against a committed adversary.

    Args:
        algorithm: a fresh or reusable algorithm instance.
        n: number of nodes (identifiers ``0..n-1``; node 0 is the sink by
            default).
        seed: RNG seed for the adversary.
        horizon: interaction budget; defaults to :func:`default_horizon`.
        sink: sink node identifier.
        extra: extra key/values recorded in the metrics.
        engine: ``"reference"`` or ``"vectorized"``; both produce
            identical metrics, the vectorized engine just gets there sooner.
        adversary: adversary family name (default the paper's uniform
            randomized adversary).
        adversary_params: family-specific parameter overrides.
        capture_opt: also evaluate the offline-optimum baseline, filling
            the metrics' ``opt_cost`` and ``competitive_ratio`` fields
            (identical values on every engine and execution path).
    """
    result, horizon = execute_random_trial(
        algorithm, n, seed, horizon=horizon, sink=sink, engine=engine,
        adversary=adversary, adversary_params=adversary_params,
        capture_opt=capture_opt,
    )
    return TrialMetrics.from_result(
        result, n=n, seed=seed, algorithm=algorithm.name, horizon=horizon, extra=extra
    )


@dataclass
class SweepPoint:
    """Aggregated trials of one algorithm at one value of ``n``."""

    n: int
    algorithm: str
    trials: List[TrialMetrics]

    @property
    def termination_rate(self) -> float:
        return termination_rate(self.trials)

    @property
    def mean_duration(self) -> float:
        return mean_duration(self.trials)

    def summary(self) -> Optional[SampleSummary]:
        """Summary of terminated-trial durations (None if none terminated)."""
        finished = [t.duration for t in self.trials if t.terminated]
        if not finished:
            return None
        return summarize_sample(finished)

    def ratio_summary(self) -> Optional[SampleSummary]:
        """Summary of finite competitive ratios (None when none captured)."""
        from .metrics import finite_ratios

        ratios = finite_ratios(self.trials)
        if not ratios:
            return None
        return summarize_sample(ratios)


@dataclass
class SweepResult:
    """All points of an ``n`` sweep for one algorithm."""

    algorithm: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def ns(self) -> List[int]:
        return [point.n for point in self.points]

    @property
    def mean_durations(self) -> List[float]:
        return [point.mean_duration for point in self.points]

    def to_table(self, title: Optional[str] = None) -> ResultTable:
        """Render the sweep as a result table.

        When the sweep ran with offline-baseline capture (``--ratio``),
        per-``n`` competitive-ratio columns (``mean_ratio``,
        ``median_ratio``, ``p90_ratio``) are appended; sweeps without
        capture render exactly as before.  When any trial carries an
        ``extra["engine_fallback"]`` tag (a vectorized cell that routed
        trials to the fallback engine), a ``fallbacks`` column is
        appended so downgrades are visible in the table itself — without
        it, a ``--engine vectorized`` sweep whose cells silently fell
        back printed nothing distinguishable from a fully vectorized
        run.
        """
        from .metrics import has_ratio_capture

        with_ratio = any(has_ratio_capture(p.trials) for p in self.points)
        fallbacks_of = {
            point.n: sum(
                1
                for trial_metrics in point.trials
                if "engine_fallback" in trial_metrics.extra
            )
            for point in self.points
        }
        with_fallbacks = any(count for count in fallbacks_of.values())
        columns = ["n", "trials", "terminated", "mean", "std", "median", "p90"]
        if with_ratio:
            columns += ["mean_ratio", "median_ratio", "p90_ratio"]
        if with_fallbacks:
            columns += ["fallbacks"]
        table = ResultTable(
            title=title or f"{self.algorithm}: interactions to termination",
            columns=columns,
        )
        for point in self.points:
            summary = point.summary()
            row = dict(
                n=point.n,
                trials=len(point.trials),
                terminated=point.termination_rate,
                mean=summary.mean if summary else math.inf,
                std=summary.std if summary else math.inf,
                median=summary.median if summary else math.inf,
                p90=summary.p90 if summary else math.inf,
            )
            if with_ratio:
                ratios = point.ratio_summary()
                row.update(
                    mean_ratio=ratios.mean if ratios else math.inf,
                    median_ratio=ratios.median if ratios else math.inf,
                    p90_ratio=ratios.p90 if ratios else math.inf,
                )
            if with_fallbacks:
                row.update(fallbacks=fallbacks_of[point.n])
            table.add_row(**row)
        return table


def derive_sweep_trial(
    algorithm_factory: AlgorithmFactory,
    n: int,
    trial: int,
    master_seed: int = 0,
    experiment: str = "sweep",
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]] = None,
) -> Tuple[DODAAlgorithm, int, int]:
    """Derive one sweep trial's ``(algorithm, seed, horizon)``.

    This derivation is the determinism contract of the sweep: every cell
    calls it for every trial, which is what makes any engine and any
    ``workers`` count reproduce the same trials exactly.
    """
    algorithm = algorithm_factory(n)
    seed = derive_seed(master_seed, experiment, algorithm.name, n, trial)
    horizon = (
        horizon_fn(algorithm, n) if horizon_fn else default_horizon(algorithm, n)
    )
    return algorithm, seed, horizon


def validate_sweep_parameters(ns: Sequence[int], trials: int) -> None:
    """Reject empty or nonsensical sweep configurations with a clear error.

    Raises:
        ValueError: if ``ns`` is empty, contains ``n < 2``, or ``trials < 1``
            (previously an empty ``ns`` surfaced as a bare ``IndexError``
            deep in the runner, and ``n < 2`` as an adversary construction
            error mid-sweep).
    """
    if len(ns) == 0:
        raise ValueError("ns must contain at least one value of n to sweep")
    for n in ns:
        if int(n) < 2:
            raise ValueError(f"every n must be >= 2 (a DODA instance needs a sink and at least one source), got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
