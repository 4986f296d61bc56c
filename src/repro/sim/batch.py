"""Sweep cells: all trials of one algorithm at one ``n``, in one engine call.

:func:`run_sweep_cell` is the unit of every sweep.  It derives each trial's
seed, horizon, adversary and knowledge oracles, constructs one executor per
cell and hands it every trial through ``run_many``: the trial-vectorized
:class:`~repro.core.vector_execution.VectorizedExecutor` runs the cell as
one struct-of-arrays lockstep, the reference
:class:`~repro.core.execution.Executor` trial by trial.

Determinism contract: every trial derives from its seed alone
(:func:`~repro.sim.runner.derive_sweep_trial`), so a cell returns the same
metrics on either engine, and :func:`repro.sim.parallel.sweep_random_adversary`
returns the same sweep for any ``workers`` count (the differential tests in
``tests/test_differential_adversaries.py`` assert this for every adversary
family).

The cell is also the campaign layer's unit of execution and checkpointing:
:mod:`repro.campaign` decomposes a declarative spec into
:func:`run_sweep_cell` invocations (fanned out over workers via
:func:`repro.sim.parallel.run_sweep_cells`) and persists each completed
cell as one store shard.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..adversaries.factory import resolve_adversary_family
from ..core.algorithm import DODAAlgorithm
from ..core.data import NodeId
from ..core.execution import BatchTrial
from ..core.vector_execution import (
    EngineFallback,
    EngineFallbackWarning,
    VectorizedExecutor,
)
from ..obs import current_collector
from .metrics import TrialMetrics
from .runner import (
    AlgorithmFactory,
    build_knowledge_for_random_run,
    build_trial_adversary,
    derive_sweep_trial,
    resolve_engine,
    validate_sweep_parameters,
)

__all__ = ["run_sweep_cell"]


def run_sweep_cell(
    algorithm_factory: AlgorithmFactory,
    n: int,
    trials: int,
    master_seed: int = 0,
    experiment: str = "sweep",
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]] = None,
    sink: NodeId = 0,
    engine: str = "vectorized",
    adversary: str = "uniform",
    adversary_params: Optional[Dict[str, Any]] = None,
    block_size: Optional[int] = None,
    capture_opt: bool = False,
    first_trial: int = 0,
) -> List[TrialMetrics]:
    """Run all ``trials`` of one sweep cell in one engine invocation.

    ``engine="vectorized"`` runs the cell through the struct-of-arrays
    lockstep of :meth:`~repro.core.vector_execution.VectorizedExecutor.
    run_many` — every registered algorithm has a decision kernel, so a
    trial leaves the lockstep only for the exceptional shapes listed in
    :mod:`repro.core.vector_execution`; when that happens the cell emits one
    :class:`EngineFallbackWarning` and tags the affected trials' metrics
    with ``extra["engine_fallback"]`` (the reason string).
    ``engine="reference"`` runs one reference executor per trial (the
    semantics oracle for differential tests of this very function).
    ``block_size`` tunes the vectorized engine's committed window (None
    keeps its default; the reference engine ignores it).
    ``capture_opt=True`` additionally evaluates the offline-optimum
    baseline per trial (the vectorized engine does so for the whole cell in
    one batched kernel call), filling the metrics' ``opt_cost`` /
    ``competitive_ratio`` fields identically on both engines.
    ``first_trial`` offsets the trial numbers, so the call runs trials
    ``first_trial .. first_trial + trials - 1`` of the cell: consecutive
    ranges concatenate to the whole cell's metrics.

    Raises:
        ValueError: if ``n``/``trials``/``first_trial`` are invalid or
            ``engine`` / ``adversary`` is unknown.
    """
    validate_sweep_parameters([n], trials)
    if first_trial < 0:
        raise ValueError(f"first_trial must be >= 0, got {first_trial}")
    executor_cls = resolve_engine(engine)
    resolve_adversary_family(adversary)
    nodes = list(range(n))
    if sink not in nodes:
        raise ValueError("sink must be one of the nodes 0..n-1")
    collector = current_collector()
    with collector.span(
        "sweep.cell", engine=engine, adversary=adversary, n=n, trials=trials
    ) as cell_span:
        metrics = _run_cell(
            algorithm_factory, n, trials, master_seed, experiment,
            horizon_fn, sink, adversary, adversary_params,
            block_size, capture_opt, executor_cls, first_trial,
        )
        if collector.enabled:
            cell_span.set(
                algorithm=metrics[0].algorithm if metrics else "",
                fallbacks=sum(
                    1 for m in metrics if "engine_fallback" in m.extra
                ),
            )
        return metrics


def _run_cell(
    algorithm_factory: AlgorithmFactory,
    n: int,
    trials: int,
    master_seed: int,
    experiment: str,
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]],
    sink: NodeId,
    adversary: str,
    adversary_params: Optional[Dict[str, Any]],
    block_size: Optional[int],
    capture_opt: bool,
    executor_cls: Any,
    first_trial: int,
) -> List[TrialMetrics]:
    """The cell body of :func:`run_sweep_cell` (span handled by the wrapper)."""
    nodes = list(range(n))

    def prepare(trial: int):
        """One trial's engine inputs, derived from its seed alone."""
        algorithm, seed, horizon = derive_sweep_trial(
            algorithm_factory, n, trial, master_seed=master_seed,
            experiment=experiment, horizon_fn=horizon_fn,
        )
        adversary_obj = build_trial_adversary(
            adversary, nodes, seed, horizon, sink, adversary_params
        )
        knowledge, committed = build_knowledge_for_random_run(
            algorithm, adversary_obj, nodes, sink, horizon
        )
        source = committed if committed is not None else adversary_obj
        return algorithm, knowledge, source, horizon, seed

    # Trials are prepared lazily — the reference engine runs each trial as
    # soon as it is built, so only its committed future (and any
    # horizon-length committed prefix a knowledge oracle pre-draws) is
    # alive.  The vectorized engine materialises the whole cell (its
    # lockstep consumes all committed futures side by side), so its peak
    # memory grows with ``trials`` — by design.
    meta: List[Tuple[str, int, int]] = []
    first = prepare(first_trial)
    executor_kwargs: Dict[str, Any] = {
        "knowledge": first[1],
        "capture_opt": capture_opt,
    }
    if block_size is not None and executor_cls is VectorizedExecutor:
        executor_kwargs["block_size"] = block_size
    cell_executor = executor_cls(nodes, sink, first[0], **executor_kwargs)

    def batch_trials():
        for trial in range(first_trial, first_trial + trials):
            algorithm, knowledge, source, horizon, seed = (
                first if trial == first_trial else prepare(trial)
            )
            meta.append((algorithm.name, horizon, seed))
            yield BatchTrial(
                source=source,
                max_interactions=horizon,
                algorithm=algorithm,
                knowledge=knowledge,
            )

    results = cell_executor.run_many(batch_trials())
    fallbacks: Tuple[EngineFallback, ...] = getattr(
        cell_executor, "last_fallbacks", ()
    )
    if fallbacks:
        reasons = sorted({record.reason for record in fallbacks})
        warnings.warn(
            f"vectorized engine fell back to the reference engine for "
            f"{len(fallbacks)} of {trials} trials of cell "
            f"(algorithm={meta[0][0]!r}, n={n}): {'; '.join(reasons)}",
            EngineFallbackWarning,
            stacklevel=2,
        )

    # Fallen-back trials are tagged in ``extra`` (an equality-relevant field,
    # but only set on trials that actually downgraded, so zero-fallback cells
    # stay byte-identical across engines; campaign shards ignore ``extra``
    # entirely).
    reason_of = {record.position: record.reason for record in fallbacks}
    return [
        TrialMetrics.from_result(
            result,
            n=n,
            seed=seed,
            algorithm=name,
            horizon=horizon,
            extra=(
                {"engine_fallback": reason_of[trial]}
                if trial in reason_of
                else None
            ),
        )
        for trial, (result, (name, horizon, seed)) in enumerate(
            zip(results, meta)
        )
    ]
