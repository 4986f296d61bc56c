"""Core model of the DODA problem: data, nodes, interactions, execution, cost.

This package contains everything needed to state and execute an instance of
the *Distributed Online Data Aggregation* problem exactly as defined in
Section 2 of the paper: the data/aggregation model, the pairwise-interaction
dynamic-graph model, the algorithm interface, the execution engine enforcing
the transmit-at-most-once rule, and the cost measure of Section 2.3.
"""

from .algorithm import (
    ALL_KNOWLEDGE,
    AlgorithmRegistry,
    DODAAlgorithm,
    KNOWLEDGE_FULL,
    KNOWLEDGE_FUTURE,
    KNOWLEDGE_MEET_TIME,
    KNOWLEDGE_UNDERLYING_GRAPH,
    registry,
)
from .cost import (
    CostBreakdown,
    convergecast_milestones,
    cost_of_duration,
    cost_of_result,
    is_optimal,
)
from .data import (
    AggregationFunction,
    COUNT,
    DataToken,
    MAX,
    MIN,
    NodeId,
    SUM,
    get_aggregation_function,
)
from .exceptions import (
    ConfigurationError,
    HorizonExhaustedError,
    InvalidInteractionError,
    InvalidScheduleError,
    KnowledgeError,
    ModelViolationError,
    ReproError,
)
from .execution import (
    ExecutionResult,
    Executor,
    InteractionProvider,
    RecordingProvider,
    SequenceProvider,
    Transmission,
    run_algorithm,
)
from .interaction import Interaction, InteractionSequence
from .node import NetworkState, NodeView

__all__ = [
    "ALL_KNOWLEDGE",
    "AggregationFunction",
    "AlgorithmRegistry",
    "COUNT",
    "ConfigurationError",
    "CostBreakdown",
    "DODAAlgorithm",
    "DataToken",
    "ExecutionResult",
    "Executor",
    "HorizonExhaustedError",
    "Interaction",
    "InteractionProvider",
    "InteractionSequence",
    "InvalidInteractionError",
    "InvalidScheduleError",
    "KNOWLEDGE_FULL",
    "KNOWLEDGE_FUTURE",
    "KNOWLEDGE_MEET_TIME",
    "KNOWLEDGE_UNDERLYING_GRAPH",
    "KnowledgeError",
    "MAX",
    "MIN",
    "ModelViolationError",
    "NetworkState",
    "NodeId",
    "NodeView",
    "RecordingProvider",
    "ReproError",
    "SUM",
    "SequenceProvider",
    "Transmission",
    "convergecast_milestones",
    "cost_of_duration",
    "cost_of_result",
    "get_aggregation_function",
    "is_optimal",
    "registry",
    "run_algorithm",
]
