"""Adversarial worst-case search over committed interaction schedules.

The paper's competitive-ratio results are worst-case statements, but the
repo's adversary families are random generators — sampling them explores
average cases.  This package *hunts* the worst case: :mod:`.mutations`
defines family-invariant-preserving edit operators on materialized
committed schedules, :mod:`.loop` runs a deterministic seeded elitist
search that scores each generation in one vectorized engine call, and
:mod:`.corpus` freezes the hardest finds into a content-addressed store
whose every instance replays its competitive ratio bit-for-bit on both
engines (experiment E26, ``docs/search.md``).
"""

from .corpus import (
    WorstCaseCorpus,
    WorstCaseCorpusError,
    WorstCaseInstance,
    instance_from_candidate,
    replay_instance,
)
from .loop import (
    SearchCandidate,
    SearchConfig,
    SearchEngineFallbackError,
    SearchError,
    SearchOutcome,
    run_random_baseline,
    run_search,
    score_schedules,
)
from .mutations import (
    FamilyInvariant,
    MutationContext,
    MutationError,
    MutationInvariantError,
    MutationRecord,
    OPERATORS,
    Schedule,
    apply_mutation,
    default_operator_weights,
    invariant_for,
    materialize_base,
    mutate,
    propose_mutation,
)

__all__ = [
    "FamilyInvariant",
    "MutationContext",
    "MutationError",
    "MutationInvariantError",
    "MutationRecord",
    "OPERATORS",
    "Schedule",
    "SearchCandidate",
    "SearchConfig",
    "SearchEngineFallbackError",
    "SearchError",
    "SearchOutcome",
    "WorstCaseCorpus",
    "WorstCaseCorpusError",
    "WorstCaseInstance",
    "apply_mutation",
    "default_operator_weights",
    "instance_from_candidate",
    "invariant_for",
    "materialize_base",
    "mutate",
    "propose_mutation",
    "replay_instance",
    "run_random_baseline",
    "run_search",
    "score_schedules",
]
