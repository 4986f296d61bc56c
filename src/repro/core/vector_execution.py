"""Trial-vectorized execution: a whole sweep cell as struct-of-arrays.

:class:`VectorizedExecutor` is the optimised execution engine, the twin of
the reference :class:`~repro.core.execution.Executor` (the semantics
oracle).  It executes a *batch* of B trials simultaneously in
struct-of-arrays form — ``owns_data[B, n]`` and ``origin_counts[B, n]``
(payloads fold scalar-side in event order, in per-row lists, to reproduce
the reference engine's float semantics exactly) — consuming the committed
futures of all B adversaries as ``(B, block)`` dense index matrices
(:meth:`~repro.adversaries.committed.CommittedBlockAdversary.
committed_index_matrix`).

Per-interaction Python work is eliminated through two observations:

* **data ownership is monotone** — a node that transmitted never owns data
  again, so a block-level ownership mask computed *once per block* is a
  sound superset of the interactions that can possibly matter; everything
  outside the mask is discarded with numpy, never touching Python;
* **algorithm decisions are (mostly) pure** — each registered algorithm
  has a :mod:`~repro.algorithms.kernels` decision kernel, whose pure-array
  ``decide_block(state, iu, iv, t) -> direction`` is evaluated once per row
  and block.  Only the decided *candidates* (a superset of the at most
  ``n - 1`` transmissions per trial) are walked scalar-side, in time order,
  with an exact ownership re-check; a candidate the kernel left
  ``PENDING`` is resolved there, only if it is still live — so stateful
  kernels (the RNG baselines) consume their random stream at exactly the
  reference engine's ``decide`` call sites.

Each lockstep block of a row goes through the same four steps: slice the
row (translated to the executor's node order), keep the raw draw order
(sparse kernels) or the ownership-mask survivors in canonical order
(the others), call ``decide_block`` once, and drop ``NO_TRANSMISSION``.

The engine is **metric-identical** to the reference executor — same
transmission log, same durations, same :class:`~repro.core.execution.
ExecutionResult` fields, seed for seed — enforced by the differential suite
in ``tests/test_vector_execution.py`` and the invariant harness in
``tests/test_property_engine.py``.  Every registered algorithm has a
decision kernel, so under the standard sim-layer trial shapes no trial ever
leaves the lockstep.  The few trials the kernels cannot reproduce exactly —
an adaptive / non-committed interaction source, an oracle shape a kernel
cannot mirror, ``enforce_oblivious`` runs, unorderable node identifiers, a
stateful-kernel (RNG) algorithm instance shared across trials, an
instance of a subclass of the class registered under its name — fall back to
the reference :class:`~repro.core.execution.Executor`, and the engine
reports each downgrade through :attr:`VectorizedExecutor.last_fallbacks`
(per-trial :class:`EngineFallback` records with human-readable reasons);
the sim layer surfaces nonzero counts as :class:`EngineFallbackWarning`.

With ``capture_opt`` each kernel trial's offline optimum is read at
``prepare``, from doubling prefixes of its committed future
(``docs/metrics.md``), so capturing it keeps no consumed past.

Engine selection guidance lives in ``src/repro/README.md``; the speedup
trajectory (~32x over the reference engine on the standard n = 120
Waiting / Gathering / Waiting-Greedy sweep) is recorded in
``benchmarks/BENCH_engine.json`` and regression-gated by
``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

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

    index: int  # position in the caller's trial list
    kernel: Any
    state: Any
    fetcher: Any  # committed-block reader (adversary or _IndexRows)
    translate: Optional[np.ndarray]
    horizon: int
    payloads: List[float]
    opt_cost: Optional[float]  # captured at prepare, or None


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
        # baseline is read at prepare from its committed future.  The
        # lockstep releases each committed adversary's consumed past
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
        # A *stateful* (RNG-consuming) algorithm
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
            if kernel.stateful:
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
                    f"stateful (RNG) kernel state shared across "
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
            index=position,
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
        fold = self.aggregation.fold

        owns = np.ones((batch_size, n), dtype=bool)
        # Python-list mirror of ``owns`` for the scalar candidate walk
        # (plain list reads are several times cheaper than numpy scalar
        # indexing); writes go through _consume_row, which updates both.
        owns_py = [[True] * n for _ in range(batch_size)]
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
            if tracing:
                draw_started = _now()
            matrix_i, matrix_j, lengths = (
                CommittedBlockAdversary.committed_index_matrix(
                    [kernel_trials[b].fetcher for b in active], cursor, stops
                )
            )
            if tracing:
                draw_seconds += _now() - draw_started
                draw_blocks += 1
            still_active = []
            for row, b in enumerate(active):
                count = int(lengths[row])
                if count:
                    trial = kernel_trials[b]
                    candidates, first, second, directions = self._decide_row(
                        trial, owns[b], matrix_i[row, :count],
                        matrix_j[row, :count], cursor,
                    )
                    if candidates.size:
                        if tracing:
                            candidates_walked += int(candidates.size)
                        terminated_at = self._consume_row(
                            trial,
                            b,
                            candidates,
                            first,
                            second,
                            directions,
                            cursor,
                            owns,
                            owns_py[b],
                            origin_counts,
                            payload[b],
                            remaining,
                            transmissions,
                            fold,
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
            self._release_consumed(kernel_trials, active, used)
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
                opt_cost=trial.opt_cost,
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _release_consumed(
        kernel_trials: List[_KernelTrial], active: List[int], used: List[int]
    ) -> None:
        """Release each active row's committed past before its next cursor.

        No kernel reads a row's source after ``prepare`` (Waiting Greedy's
        meet table scans ahead on a lookahead copy), so only the lockstep
        reads it, and active rows share the cursor: a source shared by
        several rows is released to the same time by each.  Sources without
        ``release_before`` (finite sequences and knowledge prefixes) are
        left alone.
        """
        for b in active:
            fetcher = kernel_trials[b].fetcher
            if hasattr(fetcher, "release_before"):
                fetcher.release_before(used[b])

    # ------------------------------------------------------------------ #
    def _decide_row(
        self,
        trial: _KernelTrial,
        owns_b: np.ndarray,
        row_i: np.ndarray,
        row_j: np.ndarray,
        cursor: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One row's block, decided: ``(offsets, first, second, directions)``.

        Sparse kernels (a rare non-abstain set and an ownership-free,
        order-insensitive pure decision, e.g. Waiting's sink-only rule)
        decide the whole row in raw draw order, where direction 0 names the
        ``row_i`` side.  The others decide only the survivors of the
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
            offsets = np.nonzero(owns_b[row_i] & owns_b[row_j])[0]
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
        b: int,
        candidates: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        directions: np.ndarray,
        cursor: int,
        owns: np.ndarray,
        owns_list: List[bool],
        origin_counts: np.ndarray,
        payload_row: List[float],
        remaining: List[int],
        transmissions: List[List[Transmission]],
        fold: Any,
    ) -> Optional[int]:
        """Walk one row's decided candidates in time order; apply them.

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
        owns_b = owns[b]
        sink = self.sink_index
        nodes = self.nodes
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
                    alive = owns_b[rest_first] & owns_b[rest_second]
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
            payload_row[receiver] = fold(
                payload_row[receiver], payload_row[sender]
            )
            origin_counts[b, receiver] += origin_counts[b, sender]
            owns_b[sender] = False
            owns_list[sender] = False
            remaining[b] -= 1
            transmissions[b].append(
                Transmission(time=time, sender=nodes[sender], receiver=nodes[receiver])
            )
            if remaining[b] == 0:
                return time + 1
            position += 1
        return None
