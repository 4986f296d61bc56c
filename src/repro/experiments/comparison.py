"""Experiment E16: head-to-head comparison of all algorithms.

This is the "summary figure" a systems reader expects: mean termination
time (in interactions) of every algorithm across an ``n`` sweep under the
randomized adversary, together with the offline optimum.  The qualitative
shape the paper implies must hold: the offline optimum (and the
future/full-knowledge algorithms) are fastest, Waiting Greedy sits strictly
between them and the no-knowledge algorithms, Gathering beats Waiting, and
the random-receiver baseline is worst.

Each algorithm is one :func:`~repro.sim.parallel.sweep_random_adversary`
call (one :func:`~repro.sim.batch.run_sweep_cell` per ``n``), so the runner
accepts ``engine`` and ``workers`` and neither changes a number.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..algorithms.full_knowledge import FullKnowledge
from ..algorithms.future_broadcast import FutureBroadcast
from ..algorithms.gathering import Gathering
from ..algorithms.random_baseline import RandomReceiver
from ..algorithms.waiting import Waiting
from ..algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from ..core.algorithm import DODAAlgorithm
from ..sim.parallel import sweep_random_adversary
from ..sim.results import ExperimentReport, ResultTable

DEFAULT_NS: Sequence[int] = (16, 24, 36, 54)
DEFAULT_TRIALS = 8


def algorithm_lineup(tau_constant: float = 2.0) -> Dict[str, Callable[[int], DODAAlgorithm]]:
    """The factories compared by the summary experiment, keyed by display name."""
    return {
        "full_knowledge": lambda n: FullKnowledge(),
        "future_broadcast": lambda n: FutureBroadcast(),
        "waiting_greedy": lambda n: WaitingGreedy(
            tau=optimal_tau(n, constant=tau_constant)
        ),
        "gathering": lambda n: Gathering(),
        "waiting": lambda n: Waiting(),
        "random_receiver": lambda n: RandomReceiver(seed=0),
    }


def run_comparison(
    ns: Sequence[int] = DEFAULT_NS,
    trials: int = DEFAULT_TRIALS,
    tau_constant: float = 2.0,
    master_seed: int = 0,
    lineup: Optional[Dict[str, Callable[[int], DODAAlgorithm]]] = None,
    engine: str = "reference",
    workers: int = 1,
) -> ExperimentReport:
    """E16 — mean interactions to termination for every algorithm across n.

    Trial seeds derive from ``(master_seed, "comparison", algorithm name, n,
    trial)``; the default lineup is keyed by those names.
    """
    factories = lineup or algorithm_lineup(tau_constant=tau_constant)
    means = {
        name: sweep_random_adversary(
            factory, ns, trials, master_seed=master_seed, experiment="comparison",
            engine=engine, workers=workers,
        ).mean_durations
        for name, factory in factories.items()
    }
    table = ResultTable(
        title="Comparison: mean interactions to termination (randomized adversary)",
        columns=["n"] + list(factories),
    )
    for index, n in enumerate(ns):
        table.add_row(n=n, **{name: values[index] for name, values in means.items()})
    # Expected ordering at the largest n (the paper's qualitative claim).
    last = {name: values[-1] for name, values in means.items()}
    ordering_holds = (
        last["full_knowledge"] <= last["waiting_greedy"] <= last["gathering"]
        and last["gathering"] <= last["waiting"]
        and last["future_broadcast"] <= last["waiting_greedy"]
    )
    table.add_note(
        "expected ordering at the largest n: full/future knowledge < waiting "
        "greedy < gathering <= waiting"
    )
    return ExperimentReport(
        experiment_id="E16",
        claim="Knowledge strictly helps: the more a node knows, the fewer "
        "interactions the aggregation needs",
        tables=[table],
        verdict=ordering_holds,
        details={"means_at_largest_n": last},
    )
