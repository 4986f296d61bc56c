"""The execution engine: run a DODA algorithm against an interaction source.

The executor owns the model rules so that algorithm implementations stay as
small as the paper's pseudo-code:

* at each interaction the algorithm is shown the two node views ordered by
  identifier and returns a receiver or None;
* the output is ignored if the two nodes do not both own data (the paper's
  simplifying convention);
* a transmission moves the sender's token to the receiver, aggregates it, and
  permanently removes the sender from the computation;
* the run terminates as soon as the sink is the only node owning data.

An execution consumes interactions either from a pre-built finite
:class:`~repro.core.interaction.InteractionSequence` or from any object
implementing the :class:`InteractionProvider` protocol (adaptive and
randomized adversaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

from ..obs import current_collector
from ..obs import now as _obs_now
from .algorithm import DODAAlgorithm
from .data import AggregationFunction, NodeId, SUM
from .exceptions import ConfigurationError, ModelViolationError
from .interaction import Interaction, InteractionSequence
from .node import NetworkState


class InteractionProvider(Protocol):
    """Anything that can produce the interaction occurring at a given time.

    Adaptive adversaries inspect ``state`` (the authoritative network state,
    which reflects all transmissions decided so far) to choose the next
    interaction; oblivious sources ignore it.
    """

    def interaction_at(
        self, time: int, state: NetworkState
    ) -> Optional[Interaction]:
        """Return the interaction occurring at ``time`` or None if exhausted."""
        ...


class SequenceProvider:
    """Adapt a finite :class:`InteractionSequence` to the provider protocol."""

    def __init__(self, sequence: InteractionSequence) -> None:
        self.sequence = sequence

    def interaction_at(
        self, time: int, state: NetworkState
    ) -> Optional[Interaction]:
        if time < len(self.sequence):
            return self.sequence[time]
        return None


class RecordingProvider:
    """Wrap a provider and record the interactions it produced.

    Adaptive adversaries do not commit to a sequence before the execution;
    wrapping them in a :class:`RecordingProvider` makes the actually-played
    sequence available afterwards (e.g. to compute the cost measure on it).
    """

    def __init__(self, inner: InteractionProvider) -> None:
        self.inner = inner
        self.recorded: List[Interaction] = []

    def interaction_at(
        self, time: int, state: NetworkState
    ) -> Optional[Interaction]:
        interaction = self.inner.interaction_at(time, state)
        if interaction is not None:
            if len(self.recorded) == time:
                self.recorded.append(interaction)
            elif time < len(self.recorded):
                # Re-querying a past time is allowed only if the provider
                # answers consistently; silently overwriting history would
                # let an adaptive adversary replay a different sequence than
                # the one the executor actually played.
                if self.recorded[time] != interaction:
                    raise ModelViolationError(
                        f"provider changed its answer for t={time}: recorded "
                        f"{self.recorded[time]} but now produced {interaction}"
                    )
            else:
                raise ModelViolationError(
                    "interactions must be requested in consecutive time order"
                )
        return interaction

    def recorded_sequence(self) -> InteractionSequence:
        """The interactions played so far, as a finite sequence."""
        return InteractionSequence(self.recorded, keep_times=True)


@dataclass(frozen=True)
class Transmission:
    """One data transmission: ``sender`` sent its token to ``receiver`` at ``time``."""

    time: int
    sender: NodeId
    receiver: NodeId


@dataclass
class BatchTrial:
    """One trial of a ``run_many`` batch.

    ``algorithm`` / ``knowledge`` default to the executor's own when None —
    pass per-trial instances when each trial carries its own oracle state
    (e.g. a ``meetTime`` oracle bound to that trial's adversary).
    """

    source: Any
    max_interactions: Optional[int] = None
    algorithm: Optional[Any] = None
    knowledge: Optional[Any] = None
    initial_payloads: Optional[dict] = None


@dataclass
class ExecutionResult:
    """Outcome of running a DODA algorithm on a sequence of interactions.

    Attributes:
        terminated: True if the sink ended up as the only data owner.
        duration: the paper's ``duration(A, I)``: the number of interactions
            consumed up to and including the one that completed the
            aggregation.  ``None`` when the run did not terminate within the
            horizon.
        interactions_used: number of interactions consumed (= horizon when
            the run did not terminate).
        transmissions: the transmission log in chronological order.
        sink_coverage: number of origins aggregated at the sink at the end.
        node_count: number of nodes in the instance.
        remaining_owners: nodes other than the sink that still own data.
        opt_cost: duration of the optimal *offline* convergecast on the
            committed window this run consumed (``opt(0) + 1``, see
            :mod:`repro.ratio.semantics`), captured only when the executor
            was constructed with ``capture_opt=True``; ``math.inf`` when no
            offline convergecast completes in the window, None when not
            captured.
    """

    terminated: bool
    duration: Optional[int]
    interactions_used: int
    transmissions: List[Transmission]
    sink_coverage: int
    node_count: int
    remaining_owners: Tuple[NodeId, ...] = ()
    sink_payload: Optional[float] = None
    opt_cost: Optional[float] = None

    @property
    def transmission_count(self) -> int:
        """Number of transmissions performed."""
        return len(self.transmissions)

    def transmissions_by_sender(self) -> dict:
        """Map sender -> transmission, for schedule inspection."""
        return {t.sender: t for t in self.transmissions}


class Executor:
    """Run DODA algorithms while enforcing the interaction model."""

    def __init__(
        self,
        nodes: Iterable[NodeId],
        sink: NodeId,
        algorithm: DODAAlgorithm,
        aggregation: AggregationFunction = SUM,
        knowledge: Any = None,
        enforce_oblivious: bool = False,
        capture_opt: bool = False,
    ) -> None:
        self.nodes = list(nodes)
        self.sink = sink
        self.algorithm = algorithm
        self.aggregation = aggregation
        self.knowledge = knowledge
        self.enforce_oblivious = enforce_oblivious
        # When True, every run also evaluates the offline-optimum baseline
        # (the paper's opt(0)) on the exact window of interactions the run
        # consumed, and reports it as ExecutionResult.opt_cost.  Committed
        # sources are read back without any extra adversary draws; generic
        # providers are transparently wrapped in a RecordingProvider.
        self.capture_opt = capture_opt
        available = () if knowledge is None else knowledge.provides()
        algorithm.validate_knowledge(available)

    # ------------------------------------------------------------------ #
    def run(
        self,
        source: Union[InteractionSequence, InteractionProvider],
        max_interactions: Optional[int] = None,
        initial_payloads: Optional[dict] = None,
    ) -> ExecutionResult:
        """Execute the algorithm until termination or ``max_interactions``.

        Args:
            source: a finite interaction sequence or an interaction provider
                (adversary).  Finite sequences also bound the horizon.
            max_interactions: hard cap on the number of interactions
                consumed; required when ``source`` is an unbounded provider.
            initial_payloads: optional per-node numeric payloads.

        Returns:
            An :class:`ExecutionResult`.

        Raises:
            ConfigurationError: if no horizon can be derived.
            ModelViolationError: if the algorithm returns an illegal output.
        """
        provider: InteractionProvider
        if isinstance(source, InteractionSequence):
            provider = SequenceProvider(source)
            if max_interactions is None:
                max_interactions = len(source)
        else:
            provider = source
        if max_interactions is None:
            raise ConfigurationError(
                "max_interactions is required when running against an "
                "unbounded interaction provider"
            )
        if (
            self.capture_opt
            and not isinstance(source, InteractionSequence)
            and not hasattr(provider, "committed_prefix")
        ):
            # Generic (e.g. adaptive) providers do not expose their played
            # window after the fact; record it so the offline baseline can
            # be evaluated on exactly the realized sequence.
            provider = RecordingProvider(provider)

        collector = current_collector()
        tracing = collector.enabled
        run_started = _obs_now() if tracing else 0.0

        state = NetworkState(
            self.nodes,
            self.sink,
            aggregation=self.aggregation,
            initial_payloads=initial_payloads,
        )
        self.algorithm.on_run_start(self.nodes, self.sink)

        transmissions: List[Transmission] = []
        duration: Optional[int] = None
        time = 0
        terminated = state.is_aggregation_complete()
        if terminated:
            duration = 0

        while not terminated and time < max_interactions:
            interaction = provider.interaction_at(time, state)
            if interaction is None:
                break
            decision = self._decide(interaction, time, state)
            if decision is not None:
                receiver = decision
                sender = interaction.other(receiver)
                state.transmit(sender, receiver, time)
                transmissions.append(
                    Transmission(time=time, sender=sender, receiver=receiver)
                )
                if state.is_aggregation_complete():
                    terminated = True
                    duration = time + 1
            time += 1

        if tracing:
            collector.add_span(
                "engine.run",
                run_started,
                _obs_now(),
                engine="reference",
                interactions=time,
                transmissions=len(transmissions),
            )

        sink_token = state.token_of(self.sink)
        return ExecutionResult(
            terminated=terminated,
            duration=duration,
            interactions_used=time,
            transmissions=transmissions,
            sink_coverage=state.sink_coverage(),
            node_count=len(self.nodes),
            remaining_owners=tuple(sorted(
                (node for node in state.owners() if node != self.sink),
                key=repr,
            )),
            sink_payload=None if sink_token is None else sink_token.payload,
            opt_cost=(
                self._captured_opt_cost(source, provider, time)
                if self.capture_opt
                else None
            ),
        )

    def run_many(self, trials: Iterable[BatchTrial]) -> List[ExecutionResult]:
        """Run trials one after another, each on a fresh executor.

        Every trial shares this executor's nodes, sink, aggregation,
        ``enforce_oblivious`` and ``capture_opt``; its algorithm and
        knowledge default to the executor's own when None.  ``trials`` is
        consumed lazily, so a caller that builds each trial on demand holds
        one committed future at a time.
        """
        results: List[ExecutionResult] = []
        for trial in trials:
            executor = Executor(
                self.nodes,
                self.sink,
                self.algorithm if trial.algorithm is None else trial.algorithm,
                aggregation=self.aggregation,
                knowledge=self.knowledge if trial.knowledge is None else trial.knowledge,
                enforce_oblivious=self.enforce_oblivious,
                capture_opt=self.capture_opt,
            )
            results.append(
                executor.run(
                    trial.source,
                    max_interactions=trial.max_interactions,
                    initial_payloads=trial.initial_payloads,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    def _captured_opt_cost(
        self,
        source: Union[InteractionSequence, InteractionProvider],
        provider: InteractionProvider,
        used: int,
    ) -> float:
        """Offline-optimum duration on the window ``[0, used)`` just played.

        The reference engine evaluates the baseline through the pure-Python
        oracle (:func:`repro.offline.convergecast.opt`) — it *is* the
        semantics oracle — while the optimized engines go through the
        differential-equal vectorized kernels of :mod:`repro.ratio`.
        Committed adversaries are read back via ``committed_prefix`` (the
        window is already committed, so this never draws), finite sequences
        are sliced, and generic providers were wrapped in a
        :class:`RecordingProvider` before the run.
        """
        from ..offline.convergecast import opt as offline_opt
        from ..ratio.semantics import opt_cost_from_end

        if isinstance(source, InteractionSequence):
            window = source.slice(0, used)
        elif hasattr(provider, "committed_prefix"):
            window = provider.committed_prefix(used)
        else:
            assert isinstance(provider, RecordingProvider)
            window = provider.recorded_sequence()
        return opt_cost_from_end(
            offline_opt(window, self.nodes, self.sink, start=0)
        )

    # ------------------------------------------------------------------ #
    def _decide(
        self, interaction: Interaction, time: int, state: NetworkState
    ) -> Optional[NodeId]:
        """Query the algorithm and validate its output for one interaction."""
        u, v = interaction.u, interaction.v
        # The paper's convention: both nodes must own data for a transmission
        # to be possible; otherwise the algorithm's output is ignored.
        if not (state.owns_data(u) and state.owns_data(v)):
            return None
        first = state.view(u, knowledge=self.knowledge)
        second = state.view(v, knowledge=self.knowledge)
        if self.enforce_oblivious and self.algorithm.oblivious:
            before = (dict(first.memory), dict(second.memory))
        decision = self.algorithm.decide(first, second, time)
        if self.enforce_oblivious and self.algorithm.oblivious:
            after = (first.memory, second.memory)
            if before[0] != after[0] or before[1] != after[1]:
                raise ModelViolationError(
                    f"oblivious algorithm {self.algorithm.name!r} modified node memory"
                )
        if decision is None:
            return None
        if decision not in (u, v):
            raise ModelViolationError(
                f"algorithm {self.algorithm.name!r} returned {decision!r} which is "
                f"not part of the interaction {{{u!r}, {v!r}}} at t={time}"
            )
        sender = interaction.other(decision)
        if sender == self.sink:
            # The sink aggregates everything; it never gives its data away.
            # Treat an attempt to make the sink transmit as a model violation
            # because no correct DODA algorithm may do this.
            raise ModelViolationError(
                f"algorithm {self.algorithm.name!r} ordered the sink to transmit "
                f"at t={time}"
            )
        return decision


def run_algorithm(
    algorithm: DODAAlgorithm,
    sequence: Union[InteractionSequence, InteractionProvider],
    nodes: Iterable[NodeId],
    sink: NodeId,
    max_interactions: Optional[int] = None,
    knowledge: Any = None,
    aggregation: AggregationFunction = SUM,
) -> ExecutionResult:
    """Convenience one-shot wrapper around :class:`Executor`."""
    executor = Executor(
        nodes=nodes,
        sink=sink,
        algorithm=algorithm,
        aggregation=aggregation,
        knowledge=knowledge,
    )
    return executor.run(sequence, max_interactions=max_interactions)
