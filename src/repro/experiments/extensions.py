"""Extension and ablation experiments (E17–E20, E23).

These go beyond the paper's stated results, along the axes its own text
suggests:

* **E17 — offline-optimum cross-check (ablation of DESIGN.md decision 1).**
  The fast journey-based ``opt`` is compared against an exhaustive search on
  small random instances; they must agree exactly.
* **E18 — non-uniform randomized adversary (concluding remarks, Q3).**
  Reruns Gathering and Waiting under hub-skewed and Zipf-skewed interaction
  distributions.  The measured effect: making the *sink* more active speeds
  aggregation up (the n² bound's constant shrinks), making it less active
  slows it down — i.e. the uniform bounds are not robust to the scheduler's
  distribution, answering the paper's open question in the affirmative for
  the natural skews.
* **E19 — Waiting Greedy tau trade-off (the content of Theorem 10).**
  Sweeps the parameter ``f(n)`` in ``tau = max(n f(n), n² log n / f(n))``;
  the measured termination time must be minimised near the paper's optimal
  choice ``f(n) = sqrt(n log n)`` (Corollary 3).
* **E20 — spanning-tree edge-order ablation (Theorem 5 robustness).**
  On tree footprints, the algorithm must stay optimal (cost 1) regardless of
  the order in which the recurrent sequence presents the tree edges.
* **E23 — trial-vectorized engine equivalence.**  The
  :class:`~repro.core.vector_execution.VectorizedExecutor` must reproduce
  the reference executor's sweep metrics **exactly** — trial for trial,
  seed for seed — across the paper's algorithms and adversary families,
  while running each trial over numpy blocks of its committed future.  The report also
  records the measured wall-clock ratio (the engine's reason to exist).

E18 and E19 run on the one sweep path: every scenario × algorithm, and
every tau exponent, is one single-``n``
:func:`~repro.sim.parallel.sweep_random_adversary` call, so both accept
``engine`` and ``workers`` and neither knob changes a number.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from ..algorithms.gathering import Gathering
from ..algorithms.spanning_tree import SpanningTreeAggregation
from ..algorithms.waiting import Waiting
from ..algorithms.waiting_greedy import WaitingGreedy
from ..analysis.statistics import fraction_within
from ..core.cost import cost_of_result
from ..core.execution import Executor
from ..graph.generators import (
    random_tree,
    sequence_with_footprint,
    tree_recurrent_sequence,
    uniform_random_sequence,
)
from ..knowledge import KnowledgeBundle, UnderlyingGraphKnowledge
from ..offline.brute_force import brute_force_opt
from ..offline.convergecast import opt as fast_opt
from ..sim.parallel import sweep_random_adversary
from ..sim.results import ExperimentReport, ResultTable
from ..sim.seeding import derive_seed


def run_offline_crosscheck(
    ns: Sequence[int] = (3, 4, 5, 6),
    sequences_per_n: int = 20,
    length: int = 40,
    master_seed: int = 0,
) -> ExperimentReport:
    """E17 — the fast offline optimum agrees with exhaustive search."""
    table = ResultTable(
        title="Offline optimum: journey-based opt vs exhaustive search",
        columns=["n", "instances", "agreements", "max_abs_difference"],
    )
    all_agree = True
    for n in ns:
        nodes = list(range(n))
        agreements = 0
        worst = 0.0
        for index in range(sequences_per_n):
            seed = derive_seed(master_seed, "crosscheck", n, index)
            sequence = uniform_random_sequence(nodes, length, seed=seed)
            fast = fast_opt(sequence, nodes, 0)
            brute = brute_force_opt(sequence, nodes, 0)
            if fast == brute or (math.isinf(fast) and math.isinf(brute)):
                agreements += 1
            else:
                all_agree = False
                worst = max(
                    worst,
                    abs((0 if math.isinf(fast) else fast) - (0 if math.isinf(brute) else brute)),
                )
        table.add_row(
            n=n,
            instances=sequences_per_n,
            agreements=agreements,
            max_abs_difference=worst,
        )
    return ExperimentReport(
        experiment_id="E17",
        claim="Ablation: the journey-based offline optimum equals the "
        "exhaustive-search optimum on every instance",
        tables=[table],
        verdict=all_agree,
        details={},
    )


def run_nonuniform_adversary(
    n: int = 40,
    trials: int = 10,
    hub_factor: float = 8.0,
    zipf_exponent: float = 1.0,
    master_seed: int = 0,
    engine: str = "reference",
    workers: int = 1,
) -> ExperimentReport:
    """E18 — how the Section 4 bounds shift under non-uniform adversaries.

    Each scenario is an adversary family (``uniform``, ``hub`` with the sink
    as hub, ``zipf``), and each algorithm in it one single-``n`` sweep.
    """
    scenarios: Dict[str, Tuple[str, Optional[Dict[str, float]]]] = {
        "uniform": ("uniform", None),
        "active_sink_hub": ("hub", {"hub_factor": hub_factor}),
        "lazy_sink": ("hub", {"hub_factor": 1.0 / hub_factor}),
        "zipf_activity": ("zipf", {"exponent": zipf_exponent}),
    }
    algorithms = {
        "gathering": lambda size: Gathering(),
        "waiting": lambda size: Waiting(),
    }
    means = {
        scenario: {
            name: sweep_random_adversary(
                factory, [n], trials, master_seed=master_seed,
                experiment=f"nonuniform/{scenario}", engine=engine, workers=workers,
                horizon_fn=lambda algorithm, size: 64 * size * size,
                adversary=family, adversary_params=params,
            ).points[0].mean_duration
            for name, factory in algorithms.items()
        }
        for scenario, (family, params) in scenarios.items()
    }
    table = ResultTable(
        title="Non-uniform randomized adversary: mean interactions to termination",
        columns=["scenario", "gathering", "waiting", "gathering_vs_uniform"],
    )
    for scenario in scenarios:
        table.add_row(
            scenario=scenario,
            gathering=means[scenario]["gathering"],
            waiting=means[scenario]["waiting"],
            gathering_vs_uniform=means[scenario]["gathering"]
            / means["uniform"]["gathering"],
        )
    table.add_note(
        "an active sink must speed aggregation up, a lazy sink must slow it "
        "down: the uniform-adversary constants are not distribution-robust"
    )
    verdict = (
        means["active_sink_hub"]["gathering"] < means["uniform"]["gathering"]
        and means["lazy_sink"]["gathering"] > means["uniform"]["gathering"]
    )
    return ExperimentReport(
        experiment_id="E18",
        claim="Extension (concluding remarks Q3): non-uniform randomized "
        "adversaries shift the Section 4 bounds in the expected directions",
        tables=[table],
        verdict=verdict,
        details={"means": means},
    )


def run_tau_tradeoff(
    n: int = 60,
    trials: int = 8,
    exponents: Sequence[float] = (0.25, 0.375, 0.5, 0.625, 0.75),
    master_seed: int = 0,
    engine: str = "reference",
    workers: int = 1,
) -> ExperimentReport:
    """E19 — Theorem 10's trade-off: tau(f) = max(n·f, n² log n / f).

    ``f(n) = n^e sqrt(log n)`` is swept over exponents ``e``; the paper's
    optimum is ``e = 1/2`` (Corollary 3).  The verdict checks that the
    measured termination time at the optimal exponent is no worse than at
    the extreme exponents (a U-shaped curve with its minimum in the middle).
    Each exponent is one single-``n`` sweep; all of them share the trial
    seeds, so every exponent runs on the same committed sequences.
    """
    log_n = math.log(n)
    table = ResultTable(
        title="Waiting Greedy: termination time vs the choice of f(n) in tau",
        columns=["f_exponent", "f(n)", "tau", "mean_duration", "fraction_within_tau"],
    )
    mean_by_exponent: Dict[float, float] = {}
    for exponent in exponents:
        f_n = n ** exponent * math.sqrt(log_n)
        tau = int(math.ceil(max(n * f_n, n * n * log_n / f_n)))
        point = sweep_random_adversary(
            lambda size: WaitingGreedy(tau=tau), [n], trials, master_seed=master_seed,
            experiment="tau_tradeoff", engine=engine, workers=workers,
            horizon_fn=lambda algorithm, size: max(6 * tau, 8 * size * size),
        ).points[0]
        mean_by_exponent[exponent] = point.mean_duration
        table.add_row(
            **{
                "f_exponent": exponent,
                "f(n)": f_n,
                "tau": tau,
                "mean_duration": point.mean_duration,
                "fraction_within_tau": fraction_within(
                    [trial.duration for trial in point.trials], tau
                ),
            }
        )
    optimal = mean_by_exponent[0.5]
    verdict = optimal <= mean_by_exponent[exponents[0]] and optimal <= mean_by_exponent[
        exponents[-1]
    ]
    table.add_note(
        "the paper's choice f(n) = sqrt(n log n) (exponent 0.5) minimises "
        "tau = max(n f, n^2 log n / f) and the measured termination time"
    )
    return ExperimentReport(
        experiment_id="E19",
        claim="Theorem 10 trade-off: the termination time is minimised at "
        "f(n) = sqrt(n log n), the choice of Corollary 3",
        tables=[table],
        verdict=verdict,
        details={"means": mean_by_exponent},
    )


def run_tree_order_ablation(
    n: int = 12,
    trees: int = 4,
    rounds: int = 10,
    master_seed: int = 0,
) -> ExperimentReport:
    """E20 — Theorem 5 robustness: edge order inside a round does not matter."""
    table = ResultTable(
        title="Spanning-tree algorithm on trees: cost under different edge orders",
        columns=["tree", "order", "terminated", "cost"],
    )
    all_optimal = True
    for index in range(trees):
        seed = derive_seed(master_seed, "tree_order", index)
        rng = random.Random(seed)
        tree = random_tree(n, rng=rng)
        nodes = list(range(n))
        orders = {
            "bottom_up": tree_recurrent_sequence(
                tree, rounds=rounds, order="bottom_up", root=0
            ),
            "sorted": tree_recurrent_sequence(tree, rounds=rounds, order="sorted"),
            "shuffled": sequence_with_footprint(tree, rounds=rounds, rng=rng),
        }
        for order, sequence in orders.items():
            knowledge = KnowledgeBundle(
                UnderlyingGraphKnowledge(nodes, edges=list(tree.edges()))
            )
            executor = Executor(
                nodes, 0, SpanningTreeAggregation(), knowledge=knowledge
            )
            result = executor.run(sequence)
            breakdown = cost_of_result(result, sequence, nodes, 0)
            table.add_row(
                tree=index,
                order=order,
                terminated=result.terminated,
                cost=breakdown.cost,
            )
            # cost >= 1 exactly whenever finite, so "> 1.0" is "not optimal".
            if not result.terminated or breakdown.cost > 1.0:
                all_optimal = False
    return ExperimentReport(
        experiment_id="E20",
        claim="Ablation: on tree footprints the spanning-tree algorithm is "
        "optimal regardless of the per-round edge order",
        tables=[table],
        verdict=all_optimal,
        details={},
    )


def run_vectorized_engine_check(
    n: int = 40,
    trials: int = 5,
    master_seed: int = 0,
    candidate_engine: str = "vectorized",
    adversaries: Sequence[str] = ("uniform", "community"),
) -> ExperimentReport:
    """E23 — the trial-vectorized engine is metric-identical to reference.

    Runs the paper's three main algorithms (Waiting, Gathering, Waiting
    Greedy) under each adversary family through the sweep twice — on the
    reference engine and on ``candidate_engine`` — asserts the
    :class:`~repro.sim.metrics.TrialMetrics` are equal trial for trial,
    and reports the measured wall-clock ratio.  The verdict is *equality
    only* — speedups are hardware-dependent and tracked by the benchmark
    trajectory (``benchmarks/BENCH_engine.json``) instead.
    """
    from ..algorithms.waiting_greedy import optimal_tau
    from ..obs import now as _obs_now

    factories: Dict[str, object] = {
        "waiting": lambda size: Waiting(),
        "gathering": lambda size: Gathering(),
        "waiting_greedy": lambda size: WaitingGreedy(tau=optimal_tau(size)),
    }
    table = ResultTable(
        title=f"Trial-vectorized engine vs reference (n={n}, {trials} trials/cell)",
        columns=[
            "algorithm",
            "adversary",
            "identical",
            "reference_seconds",
            "engine_seconds",
            "speedup",
        ],
    )
    all_identical = True
    speedups: Dict[str, float] = {}
    for adversary in adversaries:
        for name, factory in factories.items():
            started = _obs_now()
            reference = sweep_random_adversary(
                factory, ns=[n], trials=trials, master_seed=master_seed,
                experiment="vector_check", engine="reference",
                adversary=adversary,
            )
            reference_seconds = _obs_now() - started
            started = _obs_now()
            vectorized = sweep_random_adversary(
                factory, ns=[n], trials=trials, master_seed=master_seed,
                experiment="vector_check", engine=candidate_engine,
                adversary=adversary,
            )
            engine_seconds = _obs_now() - started
            identical = (
                vectorized.points[0].trials == reference.points[0].trials
            )
            all_identical = all_identical and identical
            speedup = reference_seconds / max(engine_seconds, 1e-9)
            speedups[f"{name}/{adversary}"] = speedup
            table.add_row(
                algorithm=name,
                adversary=adversary,
                identical=identical,
                reference_seconds=round(reference_seconds, 4),
                engine_seconds=round(engine_seconds, 4),
                speedup=round(speedup, 2),
            )
    table.add_note(
        "identical means equal TrialMetrics trial for trial (terminated, "
        "duration, transmissions, coverage), seed for seed; trials the "
        "kernels cannot mirror would fall back to the reference engine "
        "transparently"
    )
    return ExperimentReport(
        experiment_id="E23",
        claim="Extension: the trial-vectorized engine reproduces the "
        "reference engine's sweep metrics exactly, cell for cell",
        tables=[table],
        verdict=all_identical,
        details={"speedups": speedups, "engine": candidate_engine},
    )
