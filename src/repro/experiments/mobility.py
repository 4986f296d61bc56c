"""Mobility-scenario experiments (E21–E22).

The paper's introduction motivates the model with mobile deployments
(body-area sensors, vehicular networks) but analyses only the uniform
randomized adversary.  These experiments run the paper's algorithms under
the committed mobility adversaries of :mod:`repro.adversaries.mobility`:

* **E21 — mobility adversaries (random waypoint, community).**  For each
  mobility family, Gathering and Waiting are run through *both* execution
  engines on the same committed futures.  The verdict is differential and
  deterministic: every trial must terminate within a generous horizon and
  the vectorized engine must reproduce the reference engine transmission
  for transmission.  The reported mean durations show how far each mobility
  pattern shifts the uniform-adversary expectations (locality slows
  aggregation down; a static collection point speeds the final hops up).
* **E22 — contact-trace replay.**  A synthetic vehicular trace (the
  paper's second motivating example) is replayed through
  :class:`~repro.adversaries.mobility.TraceReplayAdversary`; the committed
  replay must equal the trace exactly, both engines must agree with the
  plain finite-sequence execution, and the outcome must match the trace's
  offline feasibility.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..adversaries.factory import make_adversary
from ..adversaries.mobility import TraceReplayAdversary
from ..algorithms.gathering import Gathering
from ..algorithms.waiting import Waiting
from ..core.execution import Executor
from ..core.vector_execution import VectorizedExecutor
from ..graph.properties import aggregation_feasible
from ..graph.traces import VehicularGridTrace
from ..sim.results import ExperimentReport, ResultTable
from ..sim.seeding import derive_seed

MOBILITY_FAMILIES: Sequence[str] = ("waypoint", "community")


def run_mobility_adversaries(
    n: int = 24,
    trials: int = 5,
    horizon_factor: int = 64,
    master_seed: int = 0,
) -> ExperimentReport:
    """E21 — mobility adversaries through both engines, differentially."""
    nodes = list(range(n))
    sink = 0
    horizon = horizon_factor * n * n
    algorithms = (("gathering", Gathering), ("waiting", Waiting))
    table = ResultTable(
        title="Mobility adversaries: mean interactions to termination "
        "(engines differentially checked)",
        columns=[
            "adversary",
            "algorithm",
            "terminated",
            "mean_duration",
            "engines_agree",
        ],
    )
    all_agree = True
    all_terminated = True
    means: Dict[str, Dict[str, float]] = {}
    for family in MOBILITY_FAMILIES:
        means[family] = {}
        for name, algorithm_cls in algorithms:
            durations: List[float] = []
            terminated = 0
            agree = True
            for trial in range(trials):
                seed = derive_seed(master_seed, "mobility", family, name, trial)
                reference = Executor(nodes, sink, algorithm_cls()).run(
                    make_adversary(
                        family, nodes, seed=seed, max_horizon=horizon, sink=sink
                    ),
                    max_interactions=horizon,
                )
                vectorized = VectorizedExecutor(nodes, sink, algorithm_cls()).run(
                    make_adversary(
                        family, nodes, seed=seed, max_horizon=horizon, sink=sink
                    ),
                    max_interactions=horizon,
                )
                agree = agree and vectorized == reference
                if reference.terminated:
                    terminated += 1
                    durations.append(float(reference.duration))
            mean = (
                sum(durations) / len(durations) if durations else math.inf
            )
            means[family][name] = mean
            all_agree = all_agree and agree
            all_terminated = all_terminated and terminated == trials
            table.add_row(
                adversary=family,
                algorithm=name,
                terminated=terminated / trials,
                mean_duration=mean,
                engines_agree=agree,
            )
    table.add_note(
        "every trial runs the same committed future through the reference "
        "and vectorized engines; 'engines_agree' is "
        "transmission-for-transmission equality"
    )
    return ExperimentReport(
        experiment_id="E21",
        claim="Extension: committed mobility adversaries (random waypoint, "
        "community) run identically on both engines and terminate",
        tables=[table],
        verdict=all_agree and all_terminated,
        details={"means": means},
    )


def run_trace_replay(
    vehicles: int = 10,
    grid_size: int = 5,
    steps: int = 400,
    master_seed: int = 0,
) -> ExperimentReport:
    """E22 — recorded contact traces replayed as committed adversaries."""
    trace = VehicularGridTrace(
        vehicle_count=vehicles, grid_size=grid_size, steps=steps,
        seed=master_seed,
    ).build()
    nodes = list(trace.nodes)
    feasible = aggregation_feasible(trace)

    replay_exact = (
        TraceReplayAdversary(trace).committed_prefix(trace.length)
        == trace.sequence
    )

    table = ResultTable(
        title="Trace replay: committed adversary vs direct sequence execution",
        columns=[
            "algorithm",
            "terminated",
            "duration",
            "matches_sequence_run",
            "engines_agree",
        ],
    )
    all_consistent = replay_exact
    for name, algorithm_cls in (("gathering", Gathering), ("waiting", Waiting)):
        sequence_run = Executor(nodes, trace.sink, algorithm_cls()).run(
            trace.sequence
        )
        reference = Executor(nodes, trace.sink, algorithm_cls()).run(
            TraceReplayAdversary(trace), max_interactions=trace.length
        )
        vectorized = VectorizedExecutor(nodes, trace.sink, algorithm_cls()).run(
            TraceReplayAdversary(trace), max_interactions=trace.length
        )
        matches = reference == sequence_run
        agree = vectorized == reference
        # Termination itself is *not* part of the verdict: the paper's own
        # impossibility results show online no-knowledge algorithms need
        # not match offline feasibility on a fixed finite trace.
        all_consistent = all_consistent and matches and agree
        table.add_row(
            algorithm=name,
            terminated=reference.terminated,
            duration=(
                reference.duration if reference.terminated else math.inf
            ),
            matches_sequence_run=matches,
            engines_agree=agree,
        )
    table.add_note(
        f"trace: {len(nodes)} nodes, {trace.length} contacts, "
        f"offline-feasible={feasible}; the committed replay equals the "
        f"recorded trace: {replay_exact}"
    )
    return ExperimentReport(
        experiment_id="E22",
        claim="Extension: contact-trace replay through the committed-block "
        "protocol is exact and engine-independent",
        tables=[table],
        verdict=all_consistent,
        details={"feasible": feasible, "replay_exact": replay_exact},
    )
