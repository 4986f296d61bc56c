"""Property-based tests (hypothesis) for the core invariants.

The invariants exercised here are the ones every other result builds on:

* executor invariants — no node transmits twice, live tokens partition the
  origin set, and termination means the sink holds exactly everything;
* offline optimum invariants — the constructed convergecast schedule is
  always valid and its completion time equals ``opt``; ``opt`` is monotone
  in the start time; the broadcast/convergecast reversal duality holds;
* cost invariants — cost is at least 1, and equals 1 exactly when the
  duration is within the first convergecast;
* competitive-ratio invariants — a captured ratio is ``>= 1`` exactly
  whenever finite, for every engine × adversary family combination, every
  engine captures the oracle's optimum of the committed future up to the
  horizon, and the vectorized ratio kernels agree with the pure-Python
  oracle;
* data-token algebra — aggregation never loses or duplicates origins.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import common_settings, interaction_sequences

from block_window import block_window
from repro.adversaries.factory import ADVERSARY_FAMILIES
from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.core.algorithm import registry
from repro.core.cost import cost_of_result
from repro.core.data import DataToken
from repro.core.execution import run_algorithm
from repro.core.interaction import InteractionSequence
from repro.offline.broadcast import broadcast_completion_time
from repro.offline.convergecast import (
    build_convergecast_schedule,
    foremost_arrival_times,
    opt,
)
from repro.offline.schedule import validate_schedule

# Strategies are shared suite-wide — see tests/strategies.py.


# ---------------------------------------------------------------------- #
# Executor invariants
# ---------------------------------------------------------------------- #


@common_settings
@given(data=interaction_sequences())
def test_executor_single_transmission_per_node(data):
    n, sequence = data
    result = run_algorithm(Gathering(), sequence, list(range(n)), sink=0)
    senders = [t.sender for t in result.transmissions]
    assert len(senders) == len(set(senders))
    assert 0 not in senders


@common_settings
@given(data=interaction_sequences())
def test_executor_termination_means_full_coverage(data):
    n, sequence = data
    result = run_algorithm(Gathering(), sequence, list(range(n)), sink=0)
    if result.terminated:
        assert result.sink_coverage == n
        assert result.transmission_count == n - 1
        assert result.duration == result.transmissions[-1].time + 1
    else:
        assert result.sink_coverage < n


@common_settings
@given(data=interaction_sequences())
def test_executor_waiting_transmissions_only_to_sink(data):
    n, sequence = data
    result = run_algorithm(Waiting(), sequence, list(range(n)), sink=0)
    assert all(t.receiver == 0 for t in result.transmissions)


@common_settings
@given(data=interaction_sequences())
def test_no_online_algorithm_beats_the_offline_optimum(data):
    # Whenever an online run terminates, its last transmission cannot happen
    # before the offline optimum's completion time (opt is a true optimum).
    n, sequence = data
    nodes = list(range(n))
    result = run_algorithm(Gathering(), sequence, nodes, sink=0)
    optimum = opt(sequence, nodes, 0)
    if result.terminated:
        assert not math.isinf(optimum)
        assert result.duration - 1 >= optimum


# ---------------------------------------------------------------------- #
# Offline optimum invariants
# ---------------------------------------------------------------------- #


@common_settings
@given(data=interaction_sequences())
def test_convergecast_schedule_valid_and_tight(data):
    n, sequence = data
    nodes = list(range(n))
    optimum = opt(sequence, nodes, 0)
    if math.isinf(optimum):
        return
    schedule = build_convergecast_schedule(sequence, nodes, 0)
    completion = validate_schedule(schedule, sequence, nodes, 0)
    assert completion == optimum


@common_settings
@given(data=interaction_sequences())
def test_opt_monotone_in_start(data):
    n, sequence = data
    nodes = list(range(n))
    previous = opt(sequence, nodes, 0, start=0)
    for start in range(1, min(len(sequence), 10)):
        current = opt(sequence, nodes, 0, start=start)
        assert current >= previous or math.isinf(current)
        previous = current


@common_settings
@given(data=interaction_sequences())
def test_foremost_arrivals_lower_bound_opt(data):
    n, sequence = data
    nodes = list(range(n))
    arrivals = foremost_arrival_times(sequence, nodes, 0)
    optimum = opt(sequence, nodes, 0)
    finite = [a for node, a in arrivals.items() if node != 0]
    if any(math.isinf(a) for a in finite):
        assert math.isinf(optimum)
    else:
        assert optimum == max(finite)


@common_settings
@given(data=interaction_sequences())
def test_convergecast_broadcast_duality(data):
    n, sequence = data
    nodes = list(range(n))
    optimum = opt(sequence, nodes, 0)
    reversed_full = sequence.reversed()
    flood = broadcast_completion_time(reversed_full, 0, nodes)
    # A convergecast exists in the whole sequence iff a flood from the sink
    # covers everything in the reversed sequence.
    assert math.isinf(optimum) == math.isinf(flood)


@common_settings
@given(data=interaction_sequences())
def test_full_knowledge_algorithm_achieves_opt(data):
    from repro.algorithms.full_knowledge import FullKnowledge
    from repro.core.execution import Executor
    from repro.knowledge import FullKnowledge as FullKnowledgeOracle
    from repro.knowledge import KnowledgeBundle

    n, sequence = data
    nodes = list(range(n))
    optimum = opt(sequence, nodes, 0)
    knowledge = KnowledgeBundle(FullKnowledgeOracle(sequence))
    executor = Executor(nodes, 0, FullKnowledge(), knowledge=knowledge)
    result = executor.run(sequence)
    if math.isinf(optimum):
        assert not result.terminated
    else:
        assert result.terminated
        assert result.duration == optimum + 1


# ---------------------------------------------------------------------- #
# Cost invariants
# ---------------------------------------------------------------------- #


@common_settings
@given(data=interaction_sequences())
def test_cost_at_least_one_and_one_iff_optimal(data):
    n, sequence = data
    nodes = list(range(n))
    result = run_algorithm(Gathering(), sequence, nodes, sink=0)
    if not result.terminated:
        return
    breakdown = cost_of_result(result, sequence, nodes, 0)
    assert breakdown.cost >= 1.0
    optimum = opt(sequence, nodes, 0)
    if breakdown.cost == 1.0:
        assert result.duration - 1 <= optimum
    else:
        assert result.duration - 1 > optimum


# ---------------------------------------------------------------------- #
# Competitive-ratio invariants
# ---------------------------------------------------------------------- #


#: Engine legs of the ratio invariants, as ``(engine, block cap)``, where
#: a cap replaces the vectorized engine's default window cap.  The
#: small-block leg runs each trial, and its release of the trial's
#: consumed past, across many blocks.
RATIO_LEGS = {
    "reference": ("reference", None),
    "vectorized": ("vectorized", None),
    "vectorized-small-blocks": ("vectorized", 16),
}


def ratio_cell(leg, factory, adversary, trials, horizon_fn=None):
    """One ratio-capturing sweep cell at ``n = 12`` on an engine leg."""
    from repro.sim.batch import run_sweep_cell

    engine, window = RATIO_LEGS[leg]
    with block_window(window):
        return run_sweep_cell(
            factory, 12, trials, master_seed=0, engine=engine,
            adversary=adversary, capture_opt=True, horizon_fn=horizon_fn,
        )


@pytest.mark.parametrize("engine", sorted(RATIO_LEGS))
@pytest.mark.parametrize(
    "adversary", ["uniform", "zipf", "hub", "waypoint", "community"]
)
def test_competitive_ratio_at_least_one(engine, adversary):
    """A captured ratio is >= 1 *exactly* whenever the trial terminated.

    The offline optimum is a true optimum on the consumed window, so the
    online duration can never undercut opt_cost — across every engine and
    every committed adversary family.
    """
    for metrics in ratio_cell(engine, lambda n: Gathering(), adversary, 4):
        assert metrics.opt_cost is not None
        if metrics.terminated:
            assert math.isfinite(metrics.opt_cost)
            assert metrics.competitive_ratio is not None
            assert metrics.competitive_ratio >= 1.0
            assert metrics.competitive_ratio == (
                metrics.duration / metrics.opt_cost
            )
        elif metrics.competitive_ratio is not None:
            assert metrics.competitive_ratio == math.inf


@pytest.mark.parametrize("engine", sorted(RATIO_LEGS))
@pytest.mark.parametrize(
    "name", ["spanning_tree", "full_knowledge", "future_broadcast"]
)
def test_competitive_ratio_knowledge_algorithms(engine, name):
    """Ratio >= 1 holds for the knowledge-heavy algorithms on every engine.

    These three run trial-vectorized through their own decision kernels
    now, so the invariant guards the kernel path as well as the object
    form: whenever a trial terminates the captured ratio is finite and
    at least 1, and exactly ``duration / opt_cost``.
    """
    from repro.core.algorithm import registry

    factory = lambda n: registry.create(name)
    for metrics in ratio_cell(engine, factory, "uniform", 3):
        assert metrics.opt_cost is not None
        if metrics.terminated:
            assert math.isfinite(metrics.opt_cost)
            assert metrics.competitive_ratio is not None
            assert metrics.competitive_ratio >= 1.0
            assert metrics.competitive_ratio == (
                metrics.duration / metrics.opt_cost
            )
        elif metrics.competitive_ratio is not None:
            assert metrics.competitive_ratio == math.inf


@pytest.mark.parametrize("engine", sorted(RATIO_LEGS))
@pytest.mark.parametrize(
    "adversary", ["uniform", "zipf", "hub", "waypoint", "community"]
)
def test_full_knowledge_ratio_is_exactly_one(engine, adversary):
    """Theorem 8 on the engine path: following the offline optimum costs opt.

    FullKnowledge executes ``convergecast_plan`` from time 0, and ratio
    capture evaluates ``opt(0)`` on the window the run consumed; on the
    vectorized engine both run ``repro.ratio.kernels.foremost_arrivals``.
    Every terminated trial must therefore end exactly at ``opt_cost``.
    """
    from repro.core.algorithm import registry

    factory = lambda n: registry.create("full_knowledge")
    terminated = [
        metrics
        for metrics in ratio_cell(engine, factory, adversary, 6)
        if metrics.terminated
    ]
    assert terminated
    for metrics in terminated:
        assert metrics.duration == metrics.opt_cost
        assert metrics.competitive_ratio == 1.0


def short_horizon(algorithm, n):
    """A horizon of ``2n``: at n = 12 some optima of every family end past it."""
    return 2 * n


@pytest.mark.parametrize("engine", sorted(RATIO_LEGS))
@pytest.mark.parametrize("algorithm", sorted(registry.names()))
@pytest.mark.parametrize("adversary", sorted(ADVERSARY_FAMILIES))
def test_captured_opt_is_the_committed_future_opt(engine, algorithm, adversary):
    """Every engine captures the optimum of the committed future up to the horizon.

    A terminated run is itself a convergecast inside the window it consumed,
    so the foremost arrivals lie inside that window, and a run that does
    not terminate consumes the whole future up to the horizon.  Either way
    ``opt(0)`` on the consumed window equals ``opt(0)`` on a fresh twin
    adversary's ``committed_prefix(horizon)``, which is what the vectorized
    engine reads at prepare.  The short horizon leaves some optima
    UNREACHABLE.
    """
    from repro.campaign.spec import algorithm_factory_for
    from repro.ratio.semantics import UNREACHABLE, opt_cost_from_end
    from repro.sim.runner import build_trial_adversary, derive_sweep_trial

    factory = algorithm_factory_for(algorithm)
    nodes = list(range(12))
    for horizon_fn in (None, short_horizon):
        cell = ratio_cell(engine, factory, adversary, 4, horizon_fn=horizon_fn)
        for trial, metrics in enumerate(cell):
            _, seed, horizon = derive_sweep_trial(
                factory, 12, trial, horizon_fn=horizon_fn
            )
            assert (metrics.seed, metrics.horizon) == (seed, horizon)
            twin = build_trial_adversary(adversary, nodes, seed, horizon, 0)
            assert metrics.opt_cost == opt_cost_from_end(
                opt(twin.committed_prefix(horizon), nodes, 0)
            )
        if horizon_fn is short_horizon:
            assert any(metrics.opt_cost == UNREACHABLE for metrics in cell)


@common_settings
@given(data=interaction_sequences())
def test_ratio_kernel_opt_matches_oracle(data):
    import numpy as np

    from repro.ratio.kernels import opt_end_matrix
    from repro.ratio.semantics import opt_cost_from_end

    n, sequence = data
    index_of = {node: node for node in range(n)}
    i, j = sequence.index_arrays(index_of)
    ends = opt_end_matrix(
        i[None, :], j[None, :], np.array([len(sequence)]), n, 0
    )
    oracle = opt(sequence, list(range(n)), 0)
    assert ends[0] == float(oracle)
    assert opt_cost_from_end(float(ends[0])) == opt_cost_from_end(oracle)


@common_settings
@given(data=interaction_sequences())
def test_terminated_run_ratio_bounded_below_by_one(data):
    from repro.core.vector_execution import VectorizedExecutor
    from repro.ratio.semantics import competitive_ratio

    n, sequence = data
    nodes = list(range(n))
    executor = VectorizedExecutor(nodes, 0, Gathering(), capture_opt=True)
    result = executor.run(sequence)
    assert result.opt_cost is not None
    if result.terminated:
        ratio = competitive_ratio(float(result.duration), result.opt_cost)
        assert ratio >= 1.0


# ---------------------------------------------------------------------- #
# Data-token algebra
# ---------------------------------------------------------------------- #


@common_settings
@given(
    groups=st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, unique=True),
        min_size=2,
        max_size=6,
    )
)
def test_token_aggregation_preserves_origins(groups):
    # Make the groups disjoint by offsetting each group's elements.
    disjoint = []
    offset = 0
    for group in groups:
        disjoint.append([offset + i for i in range(len(group))])
        offset += len(group)
    tokens = [
        DataToken(origins=frozenset(group), payload=float(len(group)))
        for group in disjoint
    ]
    combined = tokens[0]
    for token in tokens[1:]:
        combined = combined.aggregate(token)
    assert combined.origins == frozenset().union(*map(frozenset, disjoint))
    assert combined.payload == sum(len(group) for group in disjoint)
