"""Trial-vectorized execution: a whole sweep cell as struct-of-arrays.

:class:`VectorizedExecutor` is the optimised execution engine, the twin of
the reference :class:`~repro.core.execution.Executor` (the semantics
oracle).  It executes a *batch* of B trials simultaneously in
struct-of-arrays form — ``owns_data[B, n]``, ``transmitted_at[B, n]``,
``origin_counts[B, n]`` (payloads fold scalar-side in event order, in
per-row lists, to reproduce the reference engine's float semantics
exactly) — consuming the committed
futures of all B adversaries as ``(B, block)`` dense index matrices
(:meth:`~repro.adversaries.committed.CommittedBlockAdversary.
committed_index_matrix`).

Per-interaction Python work is eliminated through two observations:

* **data ownership is monotone** — a node that transmitted never owns data
  again, so a block-level ownership mask computed *once per block* is a
  sound superset of the interactions that can possibly matter; everything
  outside the mask is discarded with numpy, never touching Python;
* **algorithm decisions are (mostly) pure** — each supported algorithm
  registers a :mod:`~repro.algorithms.kernels` decision kernel, a
  pure-array ``decide_block(state, iu, iv, t) -> direction`` evaluated on
  whole candidate blocks.  Only the *candidates* (superset of the at most
  ``n - 1`` transmissions per trial) are walked scalar-side, in time order,
  with an exact ownership re-check — which also guarantees that sequential
  kernels (the RNG baselines) consume their random stream at exactly the
  reference engine's ``decide`` call sites.

The engine is **metric-identical** to the reference executor — same
transmission log, same durations, same :class:`~repro.core.execution.
ExecutionResult` fields, seed for seed — enforced by the differential suite
in ``tests/test_vector_execution.py`` and the invariant harness in
``tests/test_property_engine.py``.  Every registered algorithm has a
decision kernel, so under the standard sim-layer trial shapes no trial ever
leaves the lockstep.  The few trials the kernels cannot reproduce exactly —
an adaptive / non-committed interaction source, an oracle shape a kernel
cannot mirror, ``enforce_oblivious`` runs, unorderable node identifiers, a
sequential-kernel (RNG) algorithm instance shared across trials, an
instance of a subclass of the class registered under its name — fall back to
the reference :class:`~repro.core.execution.Executor`, and the engine
reports each downgrade through :attr:`VectorizedExecutor.last_fallbacks`
(per-trial :class:`EngineFallback` records with human-readable reasons);
the sim layer surfaces nonzero counts as :class:`EngineFallbackWarning`.

Engine selection guidance lives in ``src/repro/README.md``; the speedup
trajectory (~32x over the reference engine on the standard n = 120
Waiting / Gathering / Waiting-Greedy sweep) is recorded in
``benchmarks/BENCH_engine.json`` and regression-gated by
``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..adversaries.committed import CommittedBlockAdversary
from ..obs import current_collector
from ..obs import now as _now
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

#: Default number of committed interactions consumed per lockstep step.
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

#: First block length of a batch.  Starting small keeps the scalar
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


class _SequenceBlocks:
    """Adapt a finite :class:`InteractionSequence` to committed-block reads.

    Emits dense indices directly in the executor's node order, so rows built
    from sequences need no translation.
    """

    def __init__(self, sequence: InteractionSequence, index_of: Dict[NodeId, int]) -> None:
        length = len(sequence)
        self._i = np.fromiter(
            (index_of[sequence[k].u] for k in range(length)),
            dtype=np.int64,
            count=length,
        )
        self._j = np.fromiter(
            (index_of[sequence[k].v] for k in range(length)),
            dtype=np.int64,
            count=length,
        )

    def committed_index_block(self, start: int, stop: int):
        stop = min(stop, self._i.shape[0])
        if start >= stop:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._i[start:stop], self._j[start:stop]


@dataclass
class _KernelTrial:
    """One kernel-routed trial of a batch."""

    index: int  # position in the caller's trial list
    kernel: Any
    state: Any
    fetcher: Any  # committed-block reader (adversary or sequence adapter)
    translate: Optional[np.ndarray]
    horizon: int
    payloads: List[float]


class VectorizedExecutor:
    """Run batches of DODA trials as numpy struct-of-arrays.

    Construction mirrors the reference
    :class:`~repro.core.execution.Executor`; ``block_size`` bounds the
    committed-future window consumed per lockstep iteration.

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
        block_size: maximum lockstep window length (default
            :data:`DEFAULT_BLOCK_SIZE`).
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
        # Offline-optimum capture (see Executor): after the lockstep, the
        # whole cell's baselines are evaluated in one batched kernel call
        # over the exact committed windows the rows consumed.
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
        #: batch (empty when every trial ran the lockstep).  A side channel
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
        """Run a batch of trials, vectorizing every kernel-capable one.

        Results are identical to running each trial through the reference
        executor — trials the kernels cannot reproduce exactly are executed
        by it — so the returned list is uniformly exact.
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
        results: List[Optional[ExecutionResult]] = [None] * len(batch)
        effective = [
            trial.algorithm if trial.algorithm is not None else self.algorithm
            for trial in batch
        ]
        # A *stateful* (sequential-kernel, i.e. RNG-consuming) algorithm
        # instance shared by several trials must not enter the lockstep:
        # interleaving rows would consume the shared stream in a different
        # order than sequential per-trial execution.  All trials of such an
        # instance fall back together, which preserves their mutual order
        # (Executor.run_many is sequential) and therefore the stream.
        stateful_uses: Dict[int, int] = {}
        for algorithm in effective:
            try:
                kernel = get_kernel(algorithm.name)
            except LookupError:
                continue  # _prepare_trial reports the missing kernel
            if not kernel.vectorized:
                key = id(algorithm)
                stateful_uses[key] = stateful_uses.get(key, 0) + 1
        kernel_trials: List[_KernelTrial] = []
        fallback: List[BatchTrial] = []
        fallback_positions: List[int] = []
        fallbacks: List[EngineFallback] = []
        for position, trial in enumerate(batch):
            algorithm = effective[position]
            knowledge = (
                trial.knowledge if trial.knowledge is not None else self.knowledge
            )
            available = () if knowledge is None else knowledge.provides()
            algorithm.validate_knowledge(available)
            shared = stateful_uses.get(id(algorithm), 0)
            if shared > 1:
                prepared: Union[_KernelTrial, str] = (
                    f"sequential (RNG) kernel state shared across "
                    f"{shared} trials of the batch"
                )
            else:
                prepared = self._prepare_trial(
                    position, algorithm, knowledge, trial
                )
            if isinstance(prepared, _KernelTrial):
                algorithm.on_run_start(self.nodes, self.sink)
                kernel_trials.append(prepared)
            else:
                fallback.append(trial)
                fallback_positions.append(position)
                fallbacks.append(
                    EngineFallback(position=position, reason=prepared)
                )
        self.last_fallbacks = tuple(fallbacks)
        if collector.enabled:
            for record in fallbacks:
                collector.event(
                    "engine.fallback",
                    engine="vectorized",
                    position=record.position,
                    reason=record.reason,
                )
        if fallback:
            engine = Executor(
                self.nodes,
                self.sink,
                self.algorithm,
                aggregation=self.aggregation,
                knowledge=self.knowledge,
                enforce_oblivious=self.enforce_oblivious,
                capture_opt=self.capture_opt,
            )
            for position, result in zip(
                fallback_positions, engine.run_many(fallback)
            ):
                results[position] = result
        if kernel_trials:
            for position, result in self._run_lockstep(kernel_trials):
                results[position] = result
        return results  # type: ignore[return-value]

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
        position: int,
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
                fetcher: Any = _SequenceBlocks(source, self.index_of)
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
            index=position,
            kernel=kernel,
            state=state,
            fetcher=fetcher,
            translate=translate,
            horizon=int(horizon),
            payloads=[float(payloads.get(node, 1.0)) for node in self.nodes],
        )

    # ------------------------------------------------------------------ #
    def _run_lockstep(self, kernel_trials: List[_KernelTrial]):
        """The struct-of-arrays hot loop over all kernel-routed trials."""
        collector = current_collector()
        tracing = collector.enabled
        lockstep_start = _now() if tracing else 0.0
        draw_seconds = 0.0
        draw_blocks = 0
        candidates_walked = 0
        batch_size = len(kernel_trials)
        n = len(self.nodes)
        nodes = self.nodes
        sink = self.sink_index
        rank = self._rank
        fold = self.aggregation.fold

        owns = np.ones((batch_size, n), dtype=bool)
        # Python-list mirror of ``owns`` for the scalar candidate walk
        # (plain list reads are several times cheaper than numpy scalar
        # indexing); writes go through _consume_row, which updates both.
        owns_py = [[True] * n for _ in range(batch_size)]
        transmitted_at = np.full((batch_size, n), -1, dtype=np.int64)
        origin_counts = np.ones((batch_size, n), dtype=np.int64)
        # Payloads are folded scalar-side in event order (to reproduce the
        # reference engine's float semantics bit for bit), so they live as
        # per-row Python lists rather than a numpy matrix.
        payload = [list(trial.payloads) for trial in kernel_trials]
        remaining = [n - 1] * batch_size
        transmissions: List[List[Transmission]] = [[] for _ in range(batch_size)]
        duration: List[Optional[int]] = [None] * batch_size
        used = [0] * batch_size
        horizons = [trial.horizon for trial in kernel_trials]

        active = [b for b in range(batch_size) if horizons[b] > 0]
        cursor = 0
        window = min(INITIAL_BLOCK, self.block_size)
        while active:
            stops = [min(horizons[b], cursor + window) for b in active]
            # Padding with 0 (a always-valid dense index) lets the ownership
            # gather run without a sanitising pass; ``lengths`` masks the
            # padding out of the candidate set.
            if tracing:
                draw_started = _now()
            matrix_i, matrix_j, lengths = (
                CommittedBlockAdversary.committed_index_matrix(
                    [kernel_trials[b].fetcher for b in active],
                    cursor,
                    stops,
                    pad=0,
                )
            )
            if tracing:
                draw_seconds += _now() - draw_started
                draw_blocks += 1
            width = matrix_i.shape[1]
            dense_rows = [
                row
                for row, b in enumerate(active)
                if not kernel_trials[b].kernel.sparse
            ]
            if width:
                for row, b in enumerate(active):
                    trans = kernel_trials[b].translate
                    count = int(lengths[row])
                    if trans is not None and count:
                        matrix_i[row, :count] = trans[matrix_i[row, :count]]
                        matrix_j[row, :count] = trans[matrix_j[row, :count]]
                if dense_rows:
                    rows = np.array([active[row] for row in dense_rows])[:, None]
                    sub_i = matrix_i[dense_rows]
                    sub_j = matrix_j[dense_rows]
                    # The whole-matrix work is this one ownership mask:
                    # since ownership only ever decays, everything it
                    # rejects stays rejected and never reaches Python.
                    # Padded columns (index 0) need no masking here — the
                    # per-row [:count] slice below never reads them.
                    mask = owns[rows, sub_i] & owns[rows, sub_j]
                    mask_row_of = {row: k for k, row in enumerate(dense_rows)}
            still_active = []
            for row, b in enumerate(active):
                count = int(lengths[row])
                if count:
                    trial = kernel_trials[b]
                    directions: Optional[np.ndarray] = None
                    if trial.kernel.sparse:
                        # Sparse kernels (rare non-abstain set, cheap pure
                        # decision — e.g. Waiting's sink-only rule) decide
                        # the whole row first and skip the ownership
                        # gathers; the walk's re-check supplies the
                        # ownership guard.  Indices stay in raw draw order:
                        # direction 0 names the ``iu`` side positionally.
                        row_i = matrix_i[row, :count]
                        row_j = matrix_j[row, :count]
                        dirs = trial.kernel.decide_block(
                            trial.state, row_i, row_j,
                            cursor + np.arange(count),
                        )
                        candidates = np.nonzero(dirs != NO_TRANSMISSION)[0]
                        first = row_i[candidates]
                        second = row_j[candidates]
                        directions = dirs[candidates]
                    else:
                        candidates = np.nonzero(mask[mask_row_of[row]][:count])[0]
                        if candidates.size:
                            # Canonical identifier order, applied only to
                            # the candidates (the full matrix never needs
                            # it).
                            iu = matrix_i[row, candidates]
                            iv = matrix_j[row, candidates]
                            swap = rank[iu] > rank[iv]
                            first = np.where(swap, iv, iu)
                            second = np.where(swap, iu, iv)
                    if candidates.size:
                        if tracing:
                            candidates_walked += int(candidates.size)
                        terminated_at = self._consume_row(
                            trial,
                            b,
                            candidates,
                            first,
                            second,
                            cursor,
                            owns,
                            owns_py[b],
                            transmitted_at,
                            origin_counts,
                            payload[b],
                            remaining,
                            transmissions,
                            fold,
                            directions,
                        )
                        if terminated_at is not None:
                            duration[b] = terminated_at
                            used[b] = terminated_at
                            continue
                used[b] = cursor + count
                if used[b] < stops[row]:
                    continue  # committed future exhausted: row is done
                if used[b] < horizons[b]:
                    still_active.append(b)
            active = still_active
            cursor += window
            window = min(window * 2, self.block_size)

        if tracing:
            lockstep_end = _now()
            collector.add_span(
                "engine.lockstep",
                lockstep_start,
                lockstep_end,
                engine="vectorized",
                trials=batch_size,
                blocks=draw_blocks,
                candidates_walked=candidates_walked,
            )
            collector.add_span(
                "engine.committed_draws",
                lockstep_start,
                lockstep_start + draw_seconds,
                engine="vectorized",
                blocks=draw_blocks,
            )
            collector.counter("engine.candidates_walked", candidates_walked)

        opt_costs: List[Optional[float]] = [None] * batch_size
        if self.capture_opt and batch_size:
            opt_costs = self._captured_opt_costs(kernel_trials, used)

        for b, trial in enumerate(kernel_trials):
            yield trial.index, ExecutionResult(
                terminated=duration[b] is not None,
                duration=duration[b],
                interactions_used=used[b],
                transmissions=transmissions[b],
                sink_coverage=int(origin_counts[b, sink]),
                node_count=n,
                remaining_owners=tuple(
                    sorted(
                        (
                            nodes[position]
                            for position in range(n)
                            if owns[b, position] and position != sink
                        ),
                        key=repr,
                    )
                ),
                sink_payload=float(payload[b][sink]),
                opt_cost=opt_costs[b],
            )

    # ------------------------------------------------------------------ #
    def _captured_opt_costs(
        self, kernel_trials: List[_KernelTrial], used: List[int]
    ) -> List[float]:
        """Offline-optimum durations for every row, in one batched kernel call.

        Re-reads the exact committed windows the lockstep consumed (all
        already committed — zero extra adversary draws), applies each row's
        node translation, and evaluates ``opt(0)`` for the whole cell as
        ``(B, L)`` numpy array ops.
        """
        from ..ratio.kernels import opt_end_matrix
        from ..ratio.semantics import opt_cost_from_end

        matrix_i, matrix_j, lengths = (
            CommittedBlockAdversary.committed_index_matrix(
                [trial.fetcher for trial in kernel_trials],
                0,
                [int(stop) for stop in used],
                pad=0,
            )
        )
        for row, trial in enumerate(kernel_trials):
            count = int(lengths[row])
            if trial.translate is not None and count:
                matrix_i[row, :count] = trial.translate[matrix_i[row, :count]]
                matrix_j[row, :count] = trial.translate[matrix_j[row, :count]]
        ends = opt_end_matrix(
            matrix_i, matrix_j, lengths, len(self.nodes), self.sink_index
        )
        return [opt_cost_from_end(float(end)) for end in ends]

    # ------------------------------------------------------------------ #
    def _consume_row(
        self,
        trial: _KernelTrial,
        b: int,
        candidates: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        cursor: int,
        owns: np.ndarray,
        owns_list: List[bool],
        transmitted_at: np.ndarray,
        origin_counts: np.ndarray,
        payload_row: List[float],
        remaining: List[int],
        transmissions: List[List[Transmission]],
        fold: Any,
        precomputed: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """Walk one row's candidates in time order; apply its transmissions.

        ``candidates`` holds block offsets whose endpoints (``first``/
        ``second``, canonically ordered, aligned with ``candidates``) both
        owned data at block start — a sound superset, since ownership is
        monotone — so each candidate re-checks ownership scalar-side before
        deciding/applying, exactly reproducing the reference engine's
        per-interaction guard.  Returns the trial's duration when the
        aggregation completed inside this block, else None.
        """
        kernel = trial.kernel
        state = trial.state
        owns_b = owns[b]
        sink = self.sink_index
        nodes = self.nodes
        algorithm_name = kernel.algorithm_name
        if precomputed is not None:
            directions = precomputed
            direction_list = directions.tolist()
        elif kernel.vectorized:
            directions = kernel.decide_block(
                state, first, second, cursor + candidates
            )
            keep = directions != NO_TRANSMISSION
            if not keep.all():
                candidates = candidates[keep]
                first = first[keep]
                second = second[keep]
                directions = directions[keep]
            direction_list = directions.tolist()
        else:
            direction_list = None
        # The numpy views stay alongside the scalar-walk lists so the
        # periodic re-filter compaction runs entirely in numpy.
        offsets = candidates.tolist()
        first_list = first.tolist()
        second_list = second.tolist()
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
                    alive = owns_b[rest_first] & owns_b[rest_second]
                    candidates = candidates[tail][alive]
                    first = rest_first[alive]
                    second = rest_second[alive]
                    offsets = candidates.tolist()
                    first_list = first.tolist()
                    second_list = second.tolist()
                    if direction_list is not None:
                        directions = directions[tail][alive]
                        direction_list = directions.tolist()
                    position = 0
                    stale = 0
                    continue
                position += 1
                continue
            time = cursor + offsets[position]
            if direction_list is not None:
                direction = direction_list[position]
                if direction == PENDING:
                    # The kernel deferred this decision; it is resolved only
                    # now that the candidate is known to be live (stale
                    # PENDING candidates are never resolved — the reference
                    # engine never queries the oracle for them either).
                    direction = kernel.resolve_one(state, iu, iv, time)
                    if direction == NO_TRANSMISSION:
                        position += 1
                        continue
            else:
                direction = kernel.decide_one(state, iu, iv, time)
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
            payload_row[receiver] = fold(
                payload_row[receiver], payload_row[sender]
            )
            origin_counts[b, receiver] += origin_counts[b, sender]
            owns_b[sender] = False
            owns_list[sender] = False
            transmitted_at[b, sender] = time
            remaining[b] -= 1
            transmissions[b].append(
                Transmission(time=time, sender=nodes[sender], receiver=nodes[receiver])
            )
            if remaining[b] == 0:
                return time + 1
            position += 1
        return None
