"""Experiment harness: seeding, trial runners, sweeps and result tables.

Role: the measurement layer between the engines and the experiments —
derive seeds, assemble adversaries + knowledge oracles for a trial, run
``ns × trials`` sweeps as sweep cells (serially or over worker
processes), and collect :class:`~repro.sim.metrics.TrialMetrics` into
result tables.

Invariant: every trial's seed derives from ``(master_seed, experiment,
algorithm, n, trial)`` via :func:`~repro.sim.seeding.derive_seed`, so
every engine and ``workers`` count reproduce each other bit for bit, and
everything measured above this layer is reproducible from
``(master_seed, experiment)`` alone.
"""

from ..adversaries.factory import resolve_adversary_family
from .metrics import TrialMetrics, durations, mean_duration, termination_rate

# One sweep path: a sweep is a list of run_sweep_cell calls, which
# run_sweep_cells runs serially or over worker processes.
from .batch import run_sweep_cell
from .parallel import run_sweep_cells, sweep_random_adversary
from .results import ExperimentReport, ResultTable
from .runner import (
    ENGINES,
    SweepPoint,
    SweepResult,
    build_knowledge_for_random_run,
    build_trial_adversary,
    default_horizon,
    derive_sweep_trial,
    execute_random_trial,
    resolve_engine,
    run_random_trial,
    validate_sweep_parameters,
)
from .seeding import derive_seed, trial_seeds

__all__ = [
    "ENGINES",
    "ExperimentReport",
    "ResultTable",
    "SweepPoint",
    "SweepResult",
    "TrialMetrics",
    "build_knowledge_for_random_run",
    "build_trial_adversary",
    "default_horizon",
    "derive_seed",
    "derive_sweep_trial",
    "durations",
    "execute_random_trial",
    "mean_duration",
    "resolve_adversary_family",
    "resolve_engine",
    "run_random_trial",
    "run_sweep_cell",
    "run_sweep_cells",
    "sweep_random_adversary",
    "termination_rate",
    "trial_seeds",
    "validate_sweep_parameters",
]
