"""Seeded elitist local search for high-competitive-ratio schedules.

One search run hunts the worst committed schedule it can find for one
``algorithm × family`` pair at one ``n``, under a fixed evaluation budget:

1. Materialize ``initial_samples`` independent family draws (seeds derived
   from the master seed via :func:`repro.sim.seeding.derive_seed`).
2. Score the whole batch in **one engine invocation** — every candidate
   becomes a :class:`~repro.adversaries.mobility.TraceReplayAdversary`
   (via the dense-index fast path) and the batch runs through one
   :class:`~repro.core.vector_execution.VectorizedExecutor` cell with
   ``capture_opt=True``.  Under the vectorized engine a fallback is an
   *error* (:class:`SearchEngineFallbackError`), not a warning: a silently
   downgraded candidate would be scored by a different code path than its
   pool mates.
3. Keep the ``pool_size`` best candidates (elitist), then repeat: each
   generation mutates random pool members through the score-feedback-biased
   operators of :mod:`repro.search.mutations`, scores the children in one
   engine call, and re-selects the pool — one engine call per generation.

Determinism contract: the outcome is a pure function of the
:class:`SearchConfig`.  All randomness flows from ``derive_seed`` streams,
pool selection breaks score ties by insertion order (stable sort), and the
budget is consumed in fixed-size generations — so the same config
reproduces the same best candidate, lineage for lineage, and a *larger*
budget can only improve (never lose) the best ratio found at a smaller one
with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..adversaries.mobility import TraceReplayAdversary
from ..campaign.spec import algorithm_factory_for
from ..core.data import NodeId
from ..core.execution import BatchTrial
from ..obs import current_collector
from ..obs import now as _obs_now
from ..sim.metrics import TrialMetrics
from ..sim.runner import (
    build_knowledge_for_random_run,
    default_horizon,
    resolve_engine,
)
from ..sim.seeding import derive_seed
from .mutations import (
    MutationContext,
    MutationRecord,
    Schedule,
    default_operator_weights,
    invariant_for,
    materialize_base,
    mutate,
)

__all__ = [
    "SearchCandidate",
    "SearchConfig",
    "SearchEngineFallbackError",
    "SearchError",
    "SearchOutcome",
    "run_random_baseline",
    "run_search",
    "score_schedules",
]


class SearchError(ValueError):
    """The search configuration is invalid."""


class SearchEngineFallbackError(RuntimeError):
    """The vectorized engine fell back while scoring a search batch.

    The search requires every candidate of a generation to be scored by the
    same engine path; a fallback means the configuration (algorithm shape,
    knowledge oracle) is not vectorizable and the search must be run with
    ``engine="reference"`` explicitly instead of silently downgrading.
    """


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run (and hence its outcome)."""

    algorithm: str
    family: str = "uniform"
    n: int = 60
    budget: int = 192
    seed: int = 0
    sink: NodeId = 0
    engine: str = "vectorized"
    pool_size: int = 6
    generation_size: int = 16
    initial_samples: int = 32
    horizon: Optional[int] = None
    tau: Optional[float] = None
    adversary_params: Optional[Mapping[str, Any]] = None
    operator_weights: Optional[Mapping[str, float]] = None

    def validate(self) -> None:
        if self.n < 2:
            raise SearchError("n must be at least 2")
        if not 0 <= int(self.sink) < self.n:
            raise SearchError("sink must be one of the nodes 0..n-1")
        if self.budget < 1:
            raise SearchError("budget must be positive")
        if self.pool_size < 1 or self.generation_size < 1:
            raise SearchError("pool_size and generation_size must be positive")
        if self.initial_samples < 1:
            raise SearchError("initial_samples must be positive")
        if self.horizon is not None and self.horizon < 4:
            raise SearchError("horizon must be at least 4")
        resolve_engine(self.engine)

    def resolved_horizon(self) -> int:
        if self.horizon is not None:
            return int(self.horizon)
        factory = algorithm_factory_for(self.algorithm, tau=self.tau)
        return default_horizon(factory(self.n), self.n)

    def to_json(self) -> Dict[str, Any]:
        """Deterministic JSON echo (stored with every corpus instance)."""
        return {
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "budget": self.budget,
            "seed": self.seed,
            "sink": int(self.sink),
            "engine": self.engine,
            "pool_size": self.pool_size,
            "generation_size": self.generation_size,
            "initial_samples": self.initial_samples,
            "horizon": self.resolved_horizon(),
            "tau": self.tau,
            "adversary_params": (
                dict(self.adversary_params) if self.adversary_params else {}
            ),
        }


@dataclass(frozen=True)
class SearchCandidate:
    """One scored schedule: where it came from and what it cost."""

    schedule: Schedule
    base_seed: int
    lineage: Tuple[MutationRecord, ...]
    metrics: TrialMetrics

    @property
    def score(self) -> float:
        """Finite competitive ratio, or ``-inf`` (non-terminated / undefined)."""
        ratio = self.metrics.competitive_ratio
        if ratio is None or not math.isfinite(ratio):
            return float("-inf")
        return float(ratio)


@dataclass
class SearchOutcome:
    """The result of one search run (deterministic per config)."""

    config: SearchConfig
    best: SearchCandidate
    pool: List[SearchCandidate]
    evaluations: int
    history: List[float] = field(default_factory=list)

    @property
    def best_ratio(self) -> float:
        return self.best.score


def _build_trial(
    config: SearchConfig,
    schedule: Schedule,
    nodes: Sequence[NodeId],
    horizon: int,
) -> BatchTrial:
    factory = algorithm_factory_for(config.algorithm, tau=config.tau)
    algorithm = factory(config.n)
    adversary = TraceReplayAdversary.from_dense_indices(
        schedule.i, schedule.j, nodes, max_horizon=horizon
    )
    knowledge, committed = build_knowledge_for_random_run(
        algorithm, adversary, nodes, config.sink, horizon
    )
    source = committed if committed is not None else adversary
    return BatchTrial(
        source=source,
        max_interactions=horizon,
        algorithm=algorithm,
        knowledge=knowledge,
    )


def score_schedules(
    config: SearchConfig,
    schedules: Sequence[Schedule],
    seeds: Sequence[int],
) -> List[TrialMetrics]:
    """Score a candidate batch in one engine invocation (``capture_opt=True``).

    ``seeds`` are bookkeeping only (recorded in the metrics so corpus
    instances know their provenance); the schedules are already fully
    materialized, so no randomness is consumed here.

    Raises:
        SearchEngineFallbackError: if the vectorized engine fell back for
            any candidate of the batch.
    """
    if len(schedules) != len(seeds):
        raise SearchError("schedules and seeds must align")
    config.validate()
    horizon = config.resolved_horizon()
    nodes = list(range(config.n))
    executor_cls = resolve_engine(config.engine)
    trials = [
        _build_trial(config, schedule, nodes, horizon) for schedule in schedules
    ]
    executor = executor_cls(
        nodes,
        config.sink,
        trials[0].algorithm,
        knowledge=trials[0].knowledge,
        capture_opt=True,
    )
    results = executor.run_many(trials)
    fallbacks = getattr(executor, "last_fallbacks", ())
    if fallbacks:
        reasons = sorted({record.reason for record in fallbacks})
        raise SearchEngineFallbackError(
            f"vectorized engine fell back for {len(fallbacks)} of "
            f"{len(trials)} search candidates: {'; '.join(reasons)}"
        )
    algorithm_name = trials[0].algorithm.name
    return [
        TrialMetrics.from_result(
            result,
            n=config.n,
            seed=int(seed),
            algorithm=algorithm_name,
            horizon=horizon,
        )
        for result, seed in zip(results, seeds)
    ]


def _select_pool(
    candidates: Sequence[SearchCandidate], pool_size: int
) -> List[SearchCandidate]:
    # Stable sort: ties keep insertion order, so selection is deterministic.
    ranked = sorted(
        range(len(candidates)), key=lambda k: (-candidates[k].score, k)
    )
    return [candidates[k] for k in ranked[:pool_size]]


def _duration_slots(metrics: TrialMetrics) -> Optional[int]:
    if not metrics.terminated or not math.isfinite(metrics.duration):
        return None
    return int(metrics.duration)


def run_search(config: SearchConfig) -> SearchOutcome:
    """Run one full search (see module docstring for the algorithm).

    Deterministic per config; one engine invocation per generation.
    """
    config.validate()
    horizon = config.resolved_horizon()
    params = dict(config.adversary_params) if config.adversary_params else None
    invariant = invariant_for(config.family, config.n, horizon, params)
    weights = (
        dict(config.operator_weights)
        if config.operator_weights is not None
        else default_operator_weights()
    )
    rng = np.random.Generator(
        np.random.PCG64(
            derive_seed(
                config.seed,
                "adversarial-search",
                config.algorithm,
                config.family,
                config.n,
            )
        )
    )

    initial = min(config.initial_samples, config.budget)
    base_seeds = [
        derive_seed(
            config.seed,
            "search-base",
            config.algorithm,
            config.family,
            config.n,
            k,
        )
        for k in range(initial)
    ]
    schedules = [
        materialize_base(
            config.family, config.n, base_seed, horizon, config.sink, params
        )
        for base_seed in base_seeds
    ]
    collector = current_collector()
    tracing = collector.enabled
    search_started = _obs_now() if tracing else 0.0

    metrics = score_schedules(config, schedules, base_seeds)
    candidates = [
        SearchCandidate(schedule=s, base_seed=seed, lineage=(), metrics=m)
        for s, seed, m in zip(schedules, base_seeds, metrics)
    ]
    evaluations = initial
    pool = _select_pool(candidates, config.pool_size)
    history = [pool[0].score]
    generation = 0
    if tracing:
        collector.event(
            "search.generation",
            generation=generation,
            evaluations=evaluations,
            best=float(pool[0].score),
        )

    while evaluations < config.budget:
        generation_started = _obs_now() if tracing else 0.0
        count = min(config.generation_size, config.budget - evaluations)
        children: List[Tuple[Schedule, int, Tuple[MutationRecord, ...]]] = []
        for _ in range(count):
            parent = pool[int(rng.integers(0, len(pool)))]
            donor = pool[int(rng.integers(0, len(pool)))].schedule
            context = MutationContext(
                sink_index=int(config.sink),
                horizon=horizon,
                duration=_duration_slots(parent.metrics),
            )
            child_schedule, record = mutate(
                parent.schedule,
                rng,
                context,
                invariant,
                donor=donor,
                weights=weights,
            )
            children.append(
                (child_schedule, parent.base_seed, parent.lineage + (record,))
            )
        child_metrics = score_schedules(
            config,
            [schedule for schedule, _, _ in children],
            [base_seed for _, base_seed, _ in children],
        )
        evaluations += count
        candidates = list(pool) + [
            SearchCandidate(
                schedule=schedule,
                base_seed=base_seed,
                lineage=lineage,
                metrics=m,
            )
            for (schedule, base_seed, lineage), m in zip(children, child_metrics)
        ]
        pool = _select_pool(candidates, config.pool_size)
        history.append(pool[0].score)
        generation += 1
        if tracing:
            generation_end = _obs_now()
            generation_seconds = generation_end - generation_started
            collector.add_span(
                "search.generation",
                generation_started,
                generation_end,
                generation=generation,
                evaluations=count,
                best=float(pool[0].score),
                evals_per_second=(
                    count / generation_seconds if generation_seconds > 0 else 0.0
                ),
            )

    if tracing:
        collector.add_span(
            "search.run",
            search_started,
            _obs_now(),
            algorithm=config.algorithm,
            family=config.family,
            n=config.n,
            evaluations=evaluations,
            generations=generation,
            best=float(pool[0].score),
        )

    return SearchOutcome(
        config=config,
        best=pool[0],
        pool=pool,
        evaluations=evaluations,
        history=history,
    )


def run_random_baseline(config: SearchConfig) -> List[TrialMetrics]:
    """Score ``budget`` independent family draws (the search's null model).

    Seeds come from a stream disjoint from the search's own
    (``"search-random"`` vs ``"search-base"``), so experiment E26's
    comparison is between genuinely independent samples — the search's
    initial population is not part of the baseline.  Scored in
    ``generation_size`` chunks to bound the vectorized engine's cell memory.
    """
    config.validate()
    horizon = config.resolved_horizon()
    params = dict(config.adversary_params) if config.adversary_params else None
    seeds = [
        derive_seed(
            config.seed,
            "search-random",
            config.algorithm,
            config.family,
            config.n,
            k,
        )
        for k in range(config.budget)
    ]
    metrics: List[TrialMetrics] = []
    chunk = max(config.generation_size, 1)
    for start in range(0, len(seeds), chunk):
        chunk_seeds = seeds[start : start + chunk]
        schedules = [
            materialize_base(
                config.family, config.n, seed, horizon, config.sink, params
            )
            for seed in chunk_seeds
        ]
        metrics.extend(score_schedules(config, schedules, chunk_seeds))
    return metrics


def shrink_config(config: SearchConfig, budget: int) -> SearchConfig:
    """A copy of ``config`` with a smaller budget (helper for smokes)."""
    return replace(config, budget=budget)
