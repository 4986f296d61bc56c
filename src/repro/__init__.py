"""repro — reproduction of "Distributed Online Data Aggregation in Dynamic Graphs".

The package implements, tests and benchmarks the model, algorithms,
adversaries and bounds of Bramas, Masuzawa and Tixeuil (ICDCS 2016):

* :mod:`repro.core` — the DODA problem: interactions, execution engine,
  cost measure;
* :mod:`repro.graph` — dynamic graphs, generators, journeys, contact traces;
* :mod:`repro.adversaries` — oblivious, adaptive, randomized and mobility
  adversaries, including the impossibility constructions of Theorems 1–3;
* :mod:`repro.algorithms` — Waiting, Gathering, Waiting Greedy, spanning
  tree, future broadcast, full knowledge, baselines;
* :mod:`repro.knowledge` — the knowledge oracles (meetTime, future, G-bar,
  full knowledge);
* :mod:`repro.offline` — exact offline optimum (convergecast) and schedules;
* :mod:`repro.ratio` — competitive-ratio subsystem: the dense offline
  optimum and the shared ratio semantics behind the engines'
  ``capture_opt`` path;
* :mod:`repro.analysis` — bounds, growth-rate fitting, statistics;
* :mod:`repro.sim` — trial/sweep runners and result tables;
* :mod:`repro.experiments` — one module per paper claim (see DESIGN.md);
* :mod:`repro.campaign` — declarative campaign specs, sharded resumable
  runs, content-addressed result stores and paper-figure reports.

Quickstart::

    from repro import Gathering, RandomizedAdversary, Executor

    nodes = list(range(50))
    adversary = RandomizedAdversary(nodes, seed=1)
    result = Executor(nodes, sink=0, algorithm=Gathering()).run(
        adversary, max_interactions=50_000
    )
    print(result.terminated, result.duration)
"""

from .adversaries import (
    AdaptiveAdversary,
    Adversary,
    CommittedBlockAdversary,
    CommunityAdversary,
    EventuallyPeriodicAdversary,
    NonUniformRandomizedAdversary,
    RandomWaypointAdversary,
    RandomizedAdversary,
    Theorem1Adversary,
    Theorem2Construction,
    Theorem3Adversary,
    TraceReplayAdversary,
    make_adversary,
    theorem4_delaying_sequence,
)
from .algorithms import (
    CoinFlipGathering,
    FullKnowledge,
    FutureBroadcast,
    Gathering,
    RandomReceiver,
    SpanningTreeAggregation,
    Waiting,
    WaitingGreedy,
    optimal_tau,
)
from .core import (
    DODAAlgorithm,
    DataToken,
    ExecutionResult,
    Executor,
    Interaction,
    InteractionSequence,
    NetworkState,
    NodeView,
    Transmission,
    cost_of_duration,
    cost_of_result,
    is_optimal,
    registry,
    run_algorithm,
)
from .graph import (
    BodyAreaNetworkTrace,
    DynamicGraph,
    RandomWaypointTrace,
    VehicularGridTrace,
    uniform_random_sequence,
)
from .knowledge import (
    FullKnowledge as FullKnowledgeOracle,
    FutureKnowledge,
    KnowledgeBundle,
    MeetTimeKnowledge,
    UnderlyingGraphKnowledge,
)
from .offline import (
    AggregationSchedule,
    build_convergecast_schedule,
    foremost_arrival_times,
    opt,
    validate_schedule,
)
from .ratio import competitive_ratio, opt_end_matrix
from .sim import (
    ExperimentReport,
    ResultTable,
    run_random_trial,
    sweep_random_adversary,
)

__version__ = "6.0.0"

from .campaign import (  # noqa: E402  (needs __version__ for store manifests)
    CampaignReport,
    CampaignSpec,
    CampaignStore,
    build_campaign_report,
    load_campaign_spec,
    run_campaign,
)

__all__ = [
    "AdaptiveAdversary",
    "Adversary",
    "AggregationSchedule",
    "BodyAreaNetworkTrace",
    "CampaignReport",
    "CampaignSpec",
    "CampaignStore",
    "CoinFlipGathering",
    "CommittedBlockAdversary",
    "CommunityAdversary",
    "DODAAlgorithm",
    "DataToken",
    "DynamicGraph",
    "EventuallyPeriodicAdversary",
    "ExecutionResult",
    "Executor",
    "ExperimentReport",
    "FullKnowledge",
    "FullKnowledgeOracle",
    "FutureBroadcast",
    "FutureKnowledge",
    "Gathering",
    "Interaction",
    "InteractionSequence",
    "KnowledgeBundle",
    "MeetTimeKnowledge",
    "NetworkState",
    "NodeView",
    "NonUniformRandomizedAdversary",
    "RandomReceiver",
    "RandomWaypointAdversary",
    "RandomWaypointTrace",
    "RandomizedAdversary",
    "ResultTable",
    "SpanningTreeAggregation",
    "Theorem1Adversary",
    "Theorem2Construction",
    "Theorem3Adversary",
    "TraceReplayAdversary",
    "Transmission",
    "UnderlyingGraphKnowledge",
    "VehicularGridTrace",
    "Waiting",
    "WaitingGreedy",
    "build_campaign_report",
    "build_convergecast_schedule",
    "competitive_ratio",
    "cost_of_duration",
    "cost_of_result",
    "foremost_arrival_times",
    "is_optimal",
    "load_campaign_spec",
    "make_adversary",
    "opt",
    "opt_end_matrix",
    "optimal_tau",
    "registry",
    "run_algorithm",
    "run_campaign",
    "run_random_trial",
    "sweep_random_adversary",
    "theorem4_delaying_sequence",
    "uniform_random_sequence",
    "validate_schedule",
    "__version__",
]
