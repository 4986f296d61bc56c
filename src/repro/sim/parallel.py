"""The sweep: sweep cells run serially or over a process pool.

A sweep is a list of cells, each one :func:`repro.sim.batch.run_sweep_cell`
call.  Cells are embarrassingly parallel: every trial derives its own seed
from ``(master_seed, experiment, algorithm, n, trial)`` via
:func:`~repro.sim.seeding.derive_seed` and shares no RNG state with any
other trial.  :func:`run_sweep_cells` farms cells over a process pool
while preserving that derivation, so a parallel sweep reproduces the
serial one bit for bit — same :class:`~repro.sim.metrics.TrialMetrics`,
same :class:`~repro.sim.results.ResultTable` — for any ``workers`` count.

:func:`sweep_random_adversary` is the ``n`` sweep of one algorithm (one
cell per ``n``, split into one contiguous trial range per worker); a
campaign (:mod:`repro.campaign`) hands
:func:`run_sweep_cells` cells that also differ in algorithm and adversary
family, and checkpoints them as they are yielded.

Workers are started with the ``fork`` start method (the configuration,
including lambda algorithm factories, is inherited by the child processes
rather than pickled); on platforms without ``fork`` the cells run
serially.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..adversaries.factory import resolve_adversary_family
from ..core.algorithm import DODAAlgorithm
from ..core.data import NodeId
from ..obs import (
    CollectorSnapshot,
    RecordingCollector,
    current_collector,
    use_collector,
)
from ..obs import now as _now
from .batch import run_sweep_cell
from .metrics import TrialMetrics
from .runner import (
    AlgorithmFactory,
    SweepPoint,
    SweepResult,
    resolve_engine,
    validate_sweep_parameters,
)

#: Per-worker sweep configuration, inherited through ``fork`` (never
#: pickled, so lambda factories and closures work).
_WORKER_CONFIG: dict = {}


def _init_worker(config: dict) -> None:
    """Install the sweep configuration in a freshly forked worker."""
    _WORKER_CONFIG.clear()
    _WORKER_CONFIG.update(config)


def _with_worker_collector(fn: Callable[[], object]):
    """Run ``fn`` under a fresh recording collector when tracing is on.

    Forked workers inherit the parent's collector object, but recordings
    made into it die with the child process — so when the inherited
    collector is enabled, the worker records into a fresh
    :class:`~repro.obs.RecordingCollector` and ships the picklable
    snapshot back for the parent to merge.  Returns ``(result,
    snapshot_or_None)``.
    """
    if not current_collector().enabled:
        return fn(), None
    worker_collector = RecordingCollector()
    with use_collector(worker_collector):
        result = fn()
    return result, worker_collector.snapshot()


def _merge_snapshots(
    snapshots: Sequence[Optional[CollectorSnapshot]],
) -> None:
    """Fold worker trace snapshots into the parent's collector, if any."""
    collector = current_collector()
    if not collector.enabled:
        return
    merge = getattr(collector, "merge", None)
    if merge is None:
        return
    for snapshot in snapshots:
        if snapshot is not None:
            merge(snapshot)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None when unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _run_cell_task(
    index: int,
) -> Tuple[List[TrialMetrics], float, Optional[CollectorSnapshot]]:
    """Run one cell (by task index) inside a worker process.

    Returns ``(metrics, elapsed_seconds, trace_snapshot)``; the elapsed
    time is measured around the cell's own execution, so it stays accurate
    when several cells run concurrently, and the snapshot carries the
    worker's spans back to the parent collector (None when tracing is
    off).
    """
    kwargs = _WORKER_CONFIG["cells"][index]
    start = _now()
    (metrics, snapshot) = _with_worker_collector(
        lambda: run_sweep_cell(**kwargs)
    )
    return metrics, _now() - start, snapshot


def run_sweep_cells(
    cell_kwargs: Sequence[dict], workers: int = 1, with_timing: bool = False
) -> "Iterator":
    """Run sweep cells, optionally over a process pool.

    ``cell_kwargs`` is a sequence of keyword-argument dicts for
    :func:`repro.sim.batch.run_sweep_cell`; each cell may name a different
    algorithm factory and adversary family, which is exactly the shape of a
    campaign grid (:mod:`repro.campaign`).  Results are yielded **in task
    order as each cell completes** (``ProcessPoolExecutor.map``), so a caller
    can checkpoint cell by cell; an interrupt mid-iteration loses only
    cells not yet yielded.  Per-cell results are identical for every
    ``workers`` value (each cell re-derives its trials from seeds alone).

    Yields per-cell ``List[TrialMetrics]``, or ``(metrics,
    elapsed_seconds)`` pairs when ``with_timing`` is true — the elapsed
    time is measured where the cell actually ran, so it is meaningful
    even when cells execute concurrently.

    Raises:
        ValueError: if ``workers < 1`` (raised at call time, before any
            cell runs — the iterator itself never raises it).
        concurrent.futures.process.BrokenProcessPool: from the iterator,
            when a worker process dies mid-sweep.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _iter_sweep_cells(list(cell_kwargs), workers, with_timing)


def _iter_sweep_cells(
    cell_kwargs: List[dict], workers: int, with_timing: bool
) -> "Iterator":
    context = _fork_context()
    if workers == 1 or context is None or len(cell_kwargs) <= 1:
        for kwargs in cell_kwargs:
            start = _now()
            metrics = run_sweep_cell(**kwargs)
            elapsed = _now() - start
            yield (metrics, elapsed) if with_timing else metrics
        return
    # Imported here: at module level it would slow ``import repro.campaign``.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        min(workers, len(cell_kwargs)), mp_context=context,
        initializer=_init_worker, initargs=({"cells": cell_kwargs},),
    )
    try:
        # ``map`` yields in task order; a dead worker raises BrokenProcessPool.
        for metrics, elapsed, snapshot in pool.map(_run_cell_task, range(len(cell_kwargs))):
            # Merge before yielding so a caller that checkpoints cell by
            # cell sees the worker's spans as soon as the cell lands.
            _merge_snapshots((snapshot,))
            yield (metrics, elapsed) if with_timing else metrics
    finally:
        # An early close() must not wait for the cells still running.
        pool.shutdown(wait=False, cancel_futures=True)


def sweep_random_adversary(
    algorithm_factory: AlgorithmFactory,
    ns: Sequence[int],
    trials: int,
    master_seed: int = 0,
    experiment: str = "sweep",
    horizon_fn: Optional[Callable[[DODAAlgorithm, int], int]] = None,
    sink: NodeId = 0,
    engine: str = "reference",
    workers: int = 1,
    adversary: str = "uniform",
    adversary_params: Optional[dict] = None,
    block_size: Optional[int] = None,
    capture_opt: bool = False,
) -> SweepResult:
    """Run ``trials`` independent trials per ``n`` against a committed adversary.

    Each ``n`` is one :func:`repro.sim.batch.run_sweep_cell` call (the
    arguments are passed through).  ``workers > 1`` splits each ``n`` into
    up to ``workers`` contiguous trial ranges and fans them out over
    processes through :func:`run_sweep_cells`, so no worker is left alone
    with the largest ``n`` and a single-``n`` sweep runs in parallel too.
    Results are identical for both engines and every ``workers`` count,
    for every adversary family.

    Args:
        algorithm_factory: callable mapping ``n`` to a fresh algorithm
            instance (fresh instances avoid any state leak between trials).
        ns: the values of ``n`` to sweep.
        trials: number of independent trials per ``n``.
        master_seed: master seed from which all trial seeds are derived.
        experiment: experiment name mixed into seed derivation.
        horizon_fn: optional override of
            :func:`~repro.sim.runner.default_horizon`.
        sink: sink node identifier.
        engine: execution engine, ``"reference"`` or ``"vectorized"``.
        workers: worker processes (trial ranges of a cell are the unit
            of work).
        adversary: adversary family name (uniform, zipf, hub, waypoint,
            community); the default is the paper's uniform randomized
            adversary.
        adversary_params: family-specific parameter overrides.
        block_size: the vectorized engine's committed window.
        capture_opt: also evaluate the offline-optimum baseline per trial.

    Raises:
        ValueError: if ``ns`` is empty, ``trials < 1``, ``workers < 1``,
            or ``engine`` / ``adversary`` is unknown.
    """
    validate_sweep_parameters(ns, trials)
    resolve_engine(engine)
    resolve_adversary_family(adversary)
    # Each ``n`` runs as ``parts`` contiguous trial ranges
    # ``[bounds[k], bounds[k + 1])`` whose sizes differ by at most one.
    parts = max(1, min(workers, trials))
    bounds = [trials * part // parts for part in range(parts + 1)]
    cells = [
        {
            "algorithm_factory": algorithm_factory,
            "n": int(n),
            "trials": stop - start,
            "first_trial": start,
            "master_seed": master_seed,
            "experiment": experiment,
            "horizon_fn": horizon_fn,
            "sink": sink,
            "engine": engine,
            "adversary": adversary,
            "adversary_params": adversary_params,
            "block_size": block_size,
            "capture_opt": capture_opt,
        }
        for n in ns
        for start, stop in zip(bounds, bounds[1:])
    ]
    result = SweepResult(algorithm=algorithm_factory(int(ns[0])).name)
    ranges = iter(run_sweep_cells(cells, workers=workers))
    for n in ns:
        metrics = [trial for _ in range(parts) for trial in next(ranges)]
        result.points.append(
            SweepPoint(n=int(n), algorithm=result.algorithm, trials=metrics)
        )
    return result
