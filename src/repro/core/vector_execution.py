"""Trial-vectorized execution: each trial's committed future in numpy blocks.

:class:`VectorizedExecutor` is the optimised execution engine, the twin of
the reference :class:`~repro.core.execution.Executor` (the semantics
oracle).  It runs a *batch* of trials (a sweep cell) one trial at a time,
in batch order, as the reference engine does.  Each trial runs to
completion over dense node-index blocks of its committed future
(:meth:`~repro.adversaries.committed.CommittedBlockAdversary.
committed_index_matrix`, one row per block), holding only its own
ownership vector, origin counts, payloads (folded scalar-side in event
order, to reproduce the reference engine's float semantics exactly) and
transmission log.

Per-interaction Python work is eliminated through two observations:

* **data ownership is monotone** — a node that transmitted never owns data
  again, so a block-level ownership mask computed *once per block* is a
  sound superset of the interactions that can possibly matter; everything
  outside the mask is discarded with numpy, never touching Python;
* **algorithm decisions are (mostly) pure** — each registered algorithm
  has a :mod:`~repro.algorithms.kernels` decision kernel, whose pure-array
  ``decide_block(state, iu, iv, t) -> direction`` is evaluated once per
  block.  Only the decided *candidates* (a superset of the at most
  ``n - 1`` transmissions per trial) are walked scalar-side, in time order,
  with an exact ownership re-check; a candidate the kernel left
  ``PENDING`` is resolved there, only if it is still live — so the RNG
  baselines' kernels consume their random stream at exactly the reference
  engine's ``decide`` call sites.

Each block of a trial goes through the same four steps: read the block
(translated to the executor's node order), keep the raw draw order
(sparse kernels) or the ownership-mask survivors in canonical order
(the others), call ``decide_block`` once, and drop ``NO_TRANSMISSION``.

The engine is **metric-identical** to the reference executor — same
transmission log, same durations, same :class:`~repro.core.execution.
ExecutionResult` fields, seed for seed — enforced by the differential suite
in ``tests/test_vector_execution.py`` and the invariant harness in
``tests/test_property_engine.py``.  Every registered algorithm has a
decision kernel, so under the standard sim-layer trial shapes no trial ever
falls back.  The few trials the kernels cannot reproduce exactly — an
adaptive / non-committed interaction source, an oracle shape a kernel
cannot mirror, ``enforce_oblivious`` runs, unorderable node identifiers,
an instance of a subclass of the class registered under its name — run on
the reference :class:`~repro.core.execution.Executor` in their turn, and
the engine reports each downgrade through
:attr:`VectorizedExecutor.last_fallbacks` (per-trial
:class:`EngineFallback` records with human-readable reasons); the sim
layer surfaces nonzero counts as :class:`EngineFallbackWarning`.

A run releases its committed adversary's past block by block, unless a
later trial of the batch reads the same source; once a trial's result is
stored the engine drops the trial, so a batch's memory does not grow with
what its runs consume.  With ``capture_opt`` each kernel trial's offline
optimum is read at ``prepare``, from doubling prefixes of its committed
future (``docs/metrics.md``), so capturing it keeps no consumed past.

Engine selection guidance lives in ``src/repro/README.md``; the speedup
trajectory (~32x over the reference engine on the standard n = 120
Waiting / Gathering / Waiting-Greedy sweep) is recorded in
``benchmarks/BENCH_engine.json`` and regression-gated by
``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..adversaries.committed import CommittedBlockAdversary
from ..obs import current_collector
from ..obs import now as _now
from ..ratio import kernels as ratio_kernels
from ..ratio.semantics import opt_cost_from_end
from ..algorithms.kernels import (
    FIRST_RECEIVES,
    KernelUnsupported,
    NO_TRANSMISSION,
    PENDING,
    get_kernel,
)
from .algorithm import DODAAlgorithm, registry
from .data import AggregationFunction, NodeId, SUM
from .exceptions import ConfigurationError, ModelViolationError
from .execution import (
    BatchTrial,
    ExecutionResult,
    Executor,
    InteractionProvider,
    Transmission,
)
from .interaction import InteractionSequence

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "EngineFallback",
    "EngineFallbackWarning",
    "VectorizedExecutor",
    "INITIAL_BLOCK",
]

#: Default cap on the number of committed interactions read per block.
#: Large enough to amortise the numpy slicing, small enough that an early
#: termination does not force drawing far beyond the duration.  The engine
#: takes a per-instance ``block_size`` option; the default is pinned by the
#: micro-benchmark in ``benchmarks/test_bench_blocksize.py``.
DEFAULT_BLOCK_SIZE = 4096


def validate_instance(nodes: List[NodeId], sink: NodeId) -> None:
    """The DODA instance checks, made once per executor.

    Raises:
        ModelViolationError: on a sink outside the node set, duplicate
            identifiers, or fewer than two nodes.
    """
    if sink not in nodes:
        raise ModelViolationError(f"sink {sink!r} is not among the nodes")
    if len(set(nodes)) != len(nodes):
        raise ModelViolationError("node identifiers must be unique")
    if len(nodes) < 2:
        raise ModelViolationError("a DODA instance needs at least 2 nodes")


def identifier_ranks(nodes: List[NodeId]) -> Optional[List[int]]:
    """Canonical presentation rank per dense index, or None.

    Mirrors :class:`~repro.core.interaction.Interaction`'s ordering: the
    rank of a node is its position in the sorted identifier order.  Returns
    None when the identifiers are not totally ordered (the engine then
    routes every trial to the reference engine).
    """
    try:
        rank_of = {node: rank for rank, node in enumerate(sorted(nodes))}
        return [rank_of[node] for node in nodes]
    except TypeError:
        return None


class EngineFallbackWarning(RuntimeWarning):
    """A vectorized batch silently ran some trials on the fallback engine.

    Emitted (once per sweep cell, by the sim layer) when a batch submitted
    to :class:`VectorizedExecutor` routed one or more trials to the
    reference :class:`~repro.core.execution.Executor`: the results are still
    exact, but any ``engine=vectorized`` label on the cell's timings no
    longer describes how those trials actually ran.
    """


@dataclass(frozen=True)
class EngineFallback:
    """One trial of a batch that ran on the fallback engine, and why.

    ``position`` is the trial's index in the batch submitted to
    :meth:`VectorizedExecutor.run_many`; ``reason`` is a human-readable
    explanation (kernel precondition messages are captured verbatim).
    """

    position: int
    reason: str

#: First block length of a trial.  Starting small keeps the scalar
#: candidate walk short through the dense early phase (when every node
#: still owns data, every interaction is a candidate); the block length
#: doubles up to the engine's ``block_size`` as owners thin out and
#: candidates become rare.
INITIAL_BLOCK = 1024

#: After this many stale candidates (endpoints that lost data earlier in
#: the same block) accumulate since the last compaction, the remaining
#: candidates are re-masked against the current ownership vector and
#: compacted.
_REFILTER_AFTER = 48


class _IndexRows(NamedTuple):
    """A finite sequence's :meth:`InteractionSequence.index_arrays`, read
    through the committed-block protocol."""

    i: np.ndarray
    j: np.ndarray

    def committed_index_block(self, start: int, stop: int):
        return self.i[start:stop], self.j[start:stop]


@dataclass
class _KernelTrial:
    """One kernel-routed trial of a batch."""

    kernel: Any
    state: Any
    fetcher: Any  # committed-block reader (adversary or _IndexRows)
    translate: Optional[np.ndarray]
    horizon: int
    payloads: List[float]
    opt_cost: Optional[float]  # captured at prepare, or None


@dataclass
class _BlockLoops:
    """The kernel trials' block loops of one batch, summed for tracing.

    The ``engine.lockstep`` span covers the loops alone, not preparation
    or fallback runs: it starts with the first loop and lasts their summed
    time, as ``engine.committed_draws`` lasts their summed reads.
    """

    trials: int = 0
    started: float = 0.0
    seconds: float = 0.0
    draw_seconds: float = 0.0
    blocks: int = 0
    candidates_walked: int = 0

    def add_trial(self, started: float, ended: float) -> None:
        if not self.trials:
            self.started = started
        self.trials += 1
        self.seconds += ended - started

    def emit(self, collector: Any) -> None:
        collector.add_span(
            "engine.lockstep",
            self.started,
            self.started + self.seconds,
            engine="vectorized",
            trials=self.trials,
            blocks=self.blocks,
            candidates_walked=self.candidates_walked,
        )
        collector.add_span(
            "engine.committed_draws",
            self.started,
            self.started + self.draw_seconds,
            engine="vectorized",
            blocks=self.blocks,
        )
        collector.counter("engine.candidates_walked", self.candidates_walked)


class VectorizedExecutor:
    """Run batches of DODA trials, each over numpy blocks of its future.

    Construction mirrors the reference
    :class:`~repro.core.execution.Executor`; ``block_size`` bounds the
    committed-future window a trial reads per block.

    Args:
        nodes: the node set shared by every trial of a batch.
        sink: the sink node identifier.
        algorithm: default algorithm (overridable per trial).
        aggregation: payload fold.
        knowledge: default knowledge bundle (overridable per trial).
        enforce_oblivious: when True every trial falls back to the
            reference engine, which implements the memory-write check
            (kernels never touch node memory, so there is nothing to
            enforce on the kernel path).
        block_size: maximum block length (default
            :data:`DEFAULT_BLOCK_SIZE`).
        capture_opt: evaluate each trial's offline optimum at ``prepare``,
            from its committed future.  Either way a run consumes its
            committed adversaries: their past is released block by block,
            and reading it back afterwards raises (``docs/engines.md``,
            "Memory").
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        sink: NodeId,
        algorithm: DODAAlgorithm,
        aggregation: AggregationFunction = SUM,
        knowledge: Any = None,
        enforce_oblivious: bool = False,
        block_size: Optional[int] = None,
        capture_opt: bool = False,
    ) -> None:
        self.nodes = list(nodes)
        self.sink = sink
        self.algorithm = algorithm
        self.aggregation = aggregation
        self.knowledge = knowledge
        self.enforce_oblivious = enforce_oblivious
        # Offline-optimum capture (see Executor): each kernel trial's
        # baseline is read at prepare from its committed future.  A run
        # releases its committed adversary's consumed past
        # (CommittedBlockAdversary.release_before) as it goes, so a later
        # read below the consumed cursor raises.
        self.capture_opt = capture_opt
        if block_size is not None and block_size < 1:
            raise ConfigurationError("block_size must be a positive integer")
        self.block_size = int(block_size or DEFAULT_BLOCK_SIZE)
        validate_instance(self.nodes, sink)
        self.index_of = {node: position for position, node in enumerate(self.nodes)}
        self.sink_index = self.index_of[sink]
        available = () if knowledge is None else knowledge.provides()
        algorithm.validate_knowledge(available)
        # Canonical identifier ranks; unorderable identifier types route
        # every trial to the fallback.
        ranks = identifier_ranks(self.nodes)
        self._rank: Optional[np.ndarray] = (
            None if ranks is None else np.asarray(ranks, dtype=np.int64)
        )
        #: Per-trial fallback records of the most recent :meth:`run_many`
        #: batch (empty when every trial ran on a kernel).  A side channel
        #: rather than an ``ExecutionResult`` field: results stay
        #: byte-identical across engines, while the batch caller can still
        #: observe — and report — every engine downgrade.
        self.last_fallbacks: Tuple[EngineFallback, ...] = ()

    # ------------------------------------------------------------------ #
    def run(
        self,
        source: Union[InteractionSequence, InteractionProvider],
        max_interactions: Optional[int] = None,
        initial_payloads: Optional[dict] = None,
    ) -> ExecutionResult:
        """Execute one trial (a batch of size 1).

        Same contract as :meth:`repro.core.execution.Executor.run`.  Single
        trials gain little from vectorization — the engine's natural unit is
        the sweep cell via :meth:`run_many` — but the semantics are
        identical either way.
        """
        return self.run_many(
            [
                BatchTrial(
                    source=source,
                    max_interactions=max_interactions,
                    initial_payloads=initial_payloads,
                )
            ]
        )[0]

    def run_many(self, trials: Iterable[BatchTrial]) -> List[ExecutionResult]:
        """Run a batch of trials one at a time, in batch order.

        Results are identical to running each trial through the reference
        executor — trials the kernels cannot reproduce exactly are executed
        by it — so the returned list is uniformly exact.  Since the trials
        run in the reference engine's order, an algorithm instance shared
        by several trials (a ``random.Random`` stream, say) sees the same
        calls in the same order on both engines.
        """
        batch = list(trials)
        collector = current_collector()
        with collector.span(
            "engine.run_many", engine="vectorized", trials=len(batch)
        ) as span:
            results = self._run_batch(batch, collector)
            span.set(fallbacks=len(self.last_fallbacks))
            return results

    def _run_batch(
        self, batch: List[BatchTrial], collector: Any
    ) -> List[ExecutionResult]:
        self.last_fallbacks = ()
        # A source shared by several trials is released only by the last of
        # them: the others read it from time 0, at prepare or in their run.
        last_reader = {
            id(trial.source): position for position, trial in enumerate(batch)
        }
        loops = _BlockLoops() if collector.enabled else None
        results: List[ExecutionResult] = []
        # Each trial leaves the batch as it starts, so that a finished
        # trial's source and kernel state go with it: the engine holds one
        # trial at a time.
        batch.reverse()
        while batch:
            position, trial = len(results), batch.pop()
            results.append(self._run_one(
                position, trial, last_reader[id(trial.source)] == position,
                collector, loops,
            ))
        if loops is not None and loops.trials:
            loops.emit(collector)
        return results

    def _run_one(
        self,
        position: int,
        trial: BatchTrial,
        last_reader: bool,
        collector: Any,
        loops: Optional[_BlockLoops],
    ) -> ExecutionResult:
        """Route one trial and run it: on a kernel, or on the reference engine."""
        algorithm = (
            trial.algorithm if trial.algorithm is not None else self.algorithm
        )
        knowledge = (
            trial.knowledge if trial.knowledge is not None else self.knowledge
        )
        available = () if knowledge is None else knowledge.provides()
        algorithm.validate_knowledge(available)
        prepared = self._prepare_trial(algorithm, knowledge, trial)
        if isinstance(prepared, _KernelTrial):
            algorithm.on_run_start(self.nodes, self.sink)
            return self._run_trial(prepared, last_reader, loops)
        # Recorded before the run, so that a fallback the reference engine
        # fails on is still reported.
        self.last_fallbacks += (EngineFallback(position=position, reason=prepared),)
        if collector.enabled:
            collector.event(
                "engine.fallback",
                engine="vectorized",
                position=position,
                reason=prepared,
            )
        return Executor(
            self.nodes,
            self.sink,
            self.algorithm,
            aggregation=self.aggregation,
            knowledge=self.knowledge,
            enforce_oblivious=self.enforce_oblivious,
            capture_opt=self.capture_opt,
        ).run_many([trial])[0]

    @property
    def last_fallback_count(self) -> int:
        """How many trials of the last batch ran on the fallback engine."""
        return len(self.last_fallbacks)

    @property
    def last_fallback_reasons(self) -> Tuple[str, ...]:
        """The per-trial fallback reasons of the last batch, in batch order."""
        return tuple(record.reason for record in self.last_fallbacks)

    # ------------------------------------------------------------------ #
    def _prepare_trial(
        self,
        algorithm: DODAAlgorithm,
        knowledge: Any,
        trial: BatchTrial,
    ) -> Union[_KernelTrial, str]:
        """Route one trial: a prepared kernel trial, or the fallback reason."""
        if self.enforce_oblivious:
            return (
                "enforce_oblivious requires the reference engine's "
                "node-memory write check"
            )
        if self._rank is None:
            return "node identifiers have no canonical total order"
        try:
            kernel = get_kernel(algorithm.name)
            registered = registry.get(algorithm.name)
        except LookupError as exc:
            return str(exc.args[0]) if exc.args else str(exc)
        # Kernels are looked up by name, so they mirror the registered
        # class; a subclass under the same name (an overridden decide(),
        # tree builder or run hook) must run its own code.
        if type(algorithm) is not registered:
            return (
                f"{type(algorithm).__name__} is not {registered.__name__}, "
                f"the class the {algorithm.name!r} kernel mirrors"
            )
        source = trial.source
        horizon = trial.max_interactions
        translate: Optional[np.ndarray] = None
        if isinstance(source, InteractionSequence):
            if horizon is None:
                horizon = len(source)
            try:
                fetcher: Any = _IndexRows(*source.index_arrays(self.index_of))
            except KeyError:
                # The per-interaction engines only trip over such an
                # interaction if the run actually reaches it, so route the
                # trial to the fallback instead of failing eagerly.
                return (
                    "interaction sequence mentions nodes outside the "
                    "executor's node set"
                )
        elif hasattr(source, "committed_index_block"):
            if horizon is None:
                raise ConfigurationError(
                    "max_interactions is required when running against an "
                    "unbounded interaction provider"
                )
            source_nodes = source.nodes()
            if source_nodes != self.nodes:
                try:
                    translate = np.fromiter(
                        (self.index_of[node] for node in source_nodes),
                        dtype=np.int64,
                        count=len(source_nodes),
                    )
                except KeyError:
                    # Let the reference engine report (or survive) the
                    # mismatch.
                    return (
                        "adversary node set is not a subset of the "
                        "executor's node set"
                    )
            fetcher = source
        else:
            return (
                "adaptive / non-committed interaction provider "
                "(no committed future to vectorize)"
            )
        try:
            state = kernel.prepare(
                algorithm,
                source,
                knowledge,
                horizon,
                len(self.nodes),
                self.sink_index,
                translate=translate,
                sink_node=self.sink,
                index_of=self.index_of,
            )
        except KernelUnsupported as exc:
            return f"kernel precondition failed: {exc}"
        payloads = trial.initial_payloads or {}
        return _KernelTrial(
            kernel=kernel,
            state=state,
            fetcher=fetcher,
            translate=translate,
            horizon=int(horizon),
            payloads=[float(payloads.get(node, 1.0)) for node in self.nodes],
            opt_cost=(
                self._committed_opt_cost(fetcher, translate, int(horizon))
                if self.capture_opt
                else None
            ),
        )

    def _committed_opt_cost(
        self, fetcher: Any, translate: Optional[np.ndarray], horizon: int
    ) -> float:
        """The trial's offline-optimum duration, read from its committed future.

        ``opt(0)`` of the first doubling prefix ``[0, 4n)``, ``[0, 8n)``, …
        that settles it, comes back short or reaches the horizon.  It equals
        ``opt(0)`` of the window the run will consume: a finite ``opt(0)``
        is the same on every window holding ``[0, opt(0) + 1)``, as a
        terminated run's window does, and any other run consumes the whole
        capped future.
        """
        n = len(self.nodes)
        horizon = max(horizon, 0)  # a sequence's negative stop would wrap
        width = 4 * n
        while True:
            stop = min(width, horizon)
            first, second = fetcher.committed_index_block(0, stop)
            if translate is not None:
                first, second = translate[first], translate[second]
            length = first.shape[0]
            end = ratio_kernels.opt_end_matrix(
                first[None], second[None], [length], n, self.sink_index
            )[0]
            if not math.isinf(end) or length < stop or stop == horizon:
                return opt_cost_from_end(float(end))
            width *= 2

    # ------------------------------------------------------------------ #
    def _run_trial(
        self,
        trial: _KernelTrial,
        release: bool,
        loops: Optional[_BlockLoops],
    ) -> ExecutionResult:
        """Run one kernel trial's blocks to completion.

        Blocks start at :data:`INITIAL_BLOCK` interactions and double up to
        ``block_size``.  Each is read, decided (:meth:`_decide_row`) and
        walked (:meth:`_consume_row`) until the aggregation completes, the
        horizon is reached or the committed future runs out.  With
        ``release`` (the batch's last reader of this source) the trial
        releases its committed past before each next block: no kernel reads
        its source after ``prepare``, since Waiting Greedy's meet table
        scans ahead on a lookahead copy.  Sources without
        ``release_before`` (finite sequences and knowledge prefixes) are
        left alone.
        """
        n = len(self.nodes)
        sink = self.sink_index
        owns = np.ones(n, dtype=bool)
        # Python-list mirror of ``owns`` for the scalar candidate walk
        # (plain list reads are several times cheaper than numpy scalar
        # indexing); writes go through _consume_row, which updates both.
        owns_list = [True] * n
        origin_counts = [1] * n
        # Payloads are folded scalar-side in event order, to reproduce the
        # reference engine's float semantics bit for bit.
        payload = trial.payloads
        transmissions: List[Transmission] = []
        duration: Optional[int] = None
        fetcher = trial.fetcher
        release = release and hasattr(fetcher, "release_before")
        horizon = trial.horizon
        if loops is not None:
            started = _now()
        used = cursor = 0
        window = min(INITIAL_BLOCK, self.block_size)
        while cursor < horizon:
            stop = min(horizon, cursor + window)
            if loops is not None:
                draw_started = _now()
            # Read through the class attribute, looked up at each call, so
            # that a wrapper installed there sees every block.
            rows_i, rows_j, lengths = (
                CommittedBlockAdversary.committed_index_matrix(
                    [fetcher], cursor, stop
                )
            )
            if loops is not None:
                loops.draw_seconds += _now() - draw_started
                loops.blocks += 1
            count = int(lengths[0])
            if count:
                candidates, first, second, directions = self._decide_row(
                    trial, owns, rows_i[0, :count], rows_j[0, :count], cursor
                )
                if candidates.size:
                    if loops is not None:
                        loops.candidates_walked += int(candidates.size)
                    duration = self._consume_row(
                        trial, candidates, first, second, directions, cursor,
                        owns, owns_list, origin_counts, payload, transmissions,
                    )
                    if duration is not None:
                        used = duration
                        break
            used = cursor + count
            if used < stop:
                break  # the committed future is exhausted
            cursor += window
            window = min(window * 2, self.block_size)
            if release and cursor < horizon:
                fetcher.release_before(cursor)
        if loops is not None:
            loops.add_trial(started, _now())

        return ExecutionResult(
            terminated=duration is not None,
            duration=duration,
            interactions_used=used,
            transmissions=transmissions,
            sink_coverage=origin_counts[sink],
            node_count=n,
            remaining_owners=tuple(
                sorted(
                    (
                        self.nodes[position]
                        for position in range(n)
                        if owns_list[position] and position != sink
                    ),
                    key=repr,
                )
            ),
            sink_payload=float(payload[sink]),
            opt_cost=trial.opt_cost,
        )

    # ------------------------------------------------------------------ #
    def _decide_row(
        self,
        trial: _KernelTrial,
        owns: np.ndarray,
        row_i: np.ndarray,
        row_j: np.ndarray,
        cursor: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One block of a trial, decided: ``(offsets, first, second, directions)``.

        Sparse kernels (a rare non-abstain set and an ownership-free,
        order-insensitive pure decision, e.g. Waiting's sink-only rule)
        decide the whole block in raw draw order, where direction 0 names
        the ``row_i`` side.  The others decide only the survivors of the
        ownership mask, in canonical identifier order: since ownership only
        decays, everything the mask (taken at block start) rejects stays
        rejected and never reaches Python.  ``NO_TRANSMISSION`` candidates
        are dropped; the walk re-checks ownership for the rest.
        """
        if trial.translate is not None:
            row_i = trial.translate[row_i]
            row_j = trial.translate[row_j]
        if trial.kernel.sparse:
            offsets = np.arange(row_i.shape[0])
            first, second = row_i, row_j
        else:
            offsets = np.nonzero(owns[row_i] & owns[row_j])[0]
            if not offsets.size:
                return offsets, offsets, offsets, offsets
            iu = row_i[offsets]
            iv = row_j[offsets]
            swap = self._rank[iu] > self._rank[iv]
            first = np.where(swap, iv, iu)
            second = np.where(swap, iu, iv)
        directions = trial.kernel.decide_block(
            trial.state, first, second, cursor + offsets
        )
        keep = np.nonzero(directions != NO_TRANSMISSION)[0]
        return offsets[keep], first[keep], second[keep], directions[keep]

    # ------------------------------------------------------------------ #
    def _consume_row(
        self,
        trial: _KernelTrial,
        candidates: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        directions: np.ndarray,
        cursor: int,
        owns: np.ndarray,
        owns_list: List[bool],
        origin_counts: List[int],
        payload: List[float],
        transmissions: List[Transmission],
    ) -> Optional[int]:
        """Walk one block's decided candidates in time order; apply them.

        ``candidates`` holds block offsets, aligned with their endpoints
        (``first``/``second``) and their kernel ``directions``.  Their
        endpoints owned data at block start, or the kernel is sparse, so
        each candidate re-checks ownership scalar-side before it is
        resolved or applied, exactly reproducing the reference engine's
        per-interaction guard.  Returns the trial's duration when the
        aggregation completed inside this block, else None.
        """
        kernel = trial.kernel
        state = trial.state
        sink = self.sink_index
        nodes = self.nodes
        fold = self.aggregation.fold
        # Every transmission takes one owner other than the sink.
        remaining = len(nodes) - 1 - len(transmissions)
        algorithm_name = kernel.algorithm_name
        # The numpy views stay alongside the scalar-walk lists so the
        # periodic re-filter compaction runs entirely in numpy.
        offsets = candidates.tolist()
        first_list = first.tolist()
        second_list = second.tolist()
        direction_list = directions.tolist()
        position = 0
        stale = 0
        while position < len(offsets):
            iu = first_list[position]
            iv = second_list[position]
            if not (owns_list[iu] and owns_list[iv]):
                stale += 1
                remaining_count = len(offsets) - position - 1
                if stale >= _REFILTER_AFTER and remaining_count > _REFILTER_AFTER:
                    tail = slice(position + 1, None)
                    rest_first = first[tail]
                    rest_second = second[tail]
                    alive = owns[rest_first] & owns[rest_second]
                    candidates = candidates[tail][alive]
                    first = rest_first[alive]
                    second = rest_second[alive]
                    directions = directions[tail][alive]
                    offsets = candidates.tolist()
                    first_list = first.tolist()
                    second_list = second.tolist()
                    direction_list = directions.tolist()
                    position = 0
                    stale = 0
                    continue
                position += 1
                continue
            time = cursor + offsets[position]
            direction = direction_list[position]
            if direction == PENDING:
                # The kernel deferred this decision; it is resolved only
                # now that the candidate is known to be live (stale PENDING
                # candidates are never resolved — the reference engine
                # never queries the algorithm for them either).
                direction = kernel.resolve_one(state, iu, iv, time)
                if direction == NO_TRANSMISSION:
                    position += 1
                    continue
            if direction == FIRST_RECEIVES:
                receiver, sender = iu, iv
            else:
                receiver, sender = iv, iu
            if sender == sink:
                raise ModelViolationError(
                    f"algorithm {algorithm_name!r} ordered the sink to "
                    f"transmit at t={time}"
                )
            payload[receiver] = fold(payload[receiver], payload[sender])
            origin_counts[receiver] += origin_counts[sender]
            owns[sender] = False
            owns_list[sender] = False
            remaining -= 1
            transmissions.append(
                Transmission(time=time, sender=nodes[sender], receiver=nodes[receiver])
            )
            if remaining == 0:
                return time + 1
            position += 1
        return None
