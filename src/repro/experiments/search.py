"""E26 — adversarial search beats random sampling, and its finds replay exactly.

The paper's bounds are worst-case; random sweeps only ever sample average
cases.  E26 checks that the guided search of :mod:`repro.search` actually
*hunts*: for each configured ``algorithm × family`` pair at ``n`` the
seeded search's best competitive ratio must **strictly exceed the p99** of
an equal-budget random-sampling baseline (disjoint seed stream).  It then
closes the loop that makes a find a usable regression: the best instance
of every pair is frozen into a content-addressed corpus, reloaded, and
replayed on both engines — the stored competitive ratio (and
duration and transmission count) must reproduce **bit-for-bit** on each.

Both halves are deterministic per ``seed``: re-running E26 with the same
arguments reproduces the same ratios, digests and verdict.
"""

from __future__ import annotations

import math
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..search.corpus import WorstCaseCorpus, instance_from_candidate, replay_instance
from ..search.loop import SearchConfig, run_random_baseline, run_search
from ..sim.results import ExperimentReport, ResultTable

__all__ = ["run_adversarial_search"]

_DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("gathering", "uniform"),
    ("gathering", "zipf"),
)

_REPLAY_ENGINES = ("reference", "vectorized")


def _replay_matches(instance, engine: str) -> bool:
    """Bit-identical replay check on one engine (ratio, duration, tx)."""
    metrics = replay_instance(instance, engine=engine)
    ratio = metrics.competitive_ratio
    return (
        ratio is not None
        and ratio == instance.competitive_ratio
        and metrics.terminated
        and int(metrics.duration) == int(instance.metrics["duration"])
        and metrics.transmissions == int(instance.metrics["transmissions"])
    )


def run_adversarial_search(
    n: int = 60,
    budget: int = 192,
    seed: int = 0,
    engine: str = "vectorized",
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    store: Optional[str] = None,
    min_beating_pairs: int = 2,
) -> ExperimentReport:
    """Run E26 (see module docstring).

    Args:
        n: node count (the claim is stated at n=60).
        budget: evaluation budget shared by search and random baseline.
        seed: master seed; the whole experiment is deterministic in it.
        engine: scoring engine for search and baseline (replay always
            exercises both engines).
        pairs: ``(algorithm, family)`` pairs to search; defaults to
            gathering × {uniform, zipf}.
        store: optional corpus directory to persist the finds into
            (defaults to a throwaway temp store).
        min_beating_pairs: how many pairs must strictly beat the baseline
            p99 for the verdict to pass.
    """
    chosen = tuple(pairs) if pairs is not None else _DEFAULT_PAIRS
    table = ResultTable(
        title=f"E26: guided search vs equal-budget random sampling (n={n}, budget={budget})",
        columns=[
            "algorithm",
            "family",
            "search_best",
            "random_best",
            "random_p99",
            "beats_p99",
            "lineage_depth",
            "replay_identical",
        ],
    )
    details: Dict[str, object] = {"n": n, "budget": budget, "seed": seed}
    beating = 0
    all_replays_identical = True
    digests: List[str] = []

    with tempfile.TemporaryDirectory() as tmp:
        corpus = WorstCaseCorpus(store if store is not None else tmp)
        for algorithm, family in chosen:
            config = SearchConfig(
                algorithm=algorithm,
                family=family,
                n=n,
                budget=budget,
                seed=seed,
                engine=engine,
            )
            outcome = run_search(config)
            baseline = run_random_baseline(config)
            ratios = [
                m.competitive_ratio
                for m in baseline
                if m.competitive_ratio is not None
                and math.isfinite(m.competitive_ratio)
            ]
            p99 = float(np.percentile(np.asarray(ratios), 99.0))
            best = outcome.best_ratio
            beats = bool(math.isfinite(best) and best > p99)
            beating += beats

            replay_identical = False
            lineage_depth = len(outcome.best.lineage)
            if math.isfinite(best):
                digest = corpus.add(
                    instance_from_candidate(config, outcome.best)
                )
                digests.append(digest)
                instance = corpus.load(digest)
                replay_identical = all(
                    _replay_matches(instance, replay_engine)
                    for replay_engine in _REPLAY_ENGINES
                )
            all_replays_identical &= replay_identical

            table.add_row(
                algorithm=algorithm,
                family=family,
                search_best=round(best, 3) if math.isfinite(best) else None,
                random_best=round(max(ratios), 3) if ratios else None,
                random_p99=round(p99, 3),
                beats_p99=beats,
                lineage_depth=lineage_depth,
                replay_identical=replay_identical,
            )
            details[f"{algorithm}x{family}"] = {
                "search_best": best,
                "random_p99": p99,
                "beats_p99": beats,
                "replay_identical": replay_identical,
            }

    verdict = beating >= min_beating_pairs and all_replays_identical
    table.add_note(
        f"{beating}/{len(chosen)} pairs beat the random p99 "
        f"(need >= {min_beating_pairs}); corpus replay bit-identical on "
        f"{'/'.join(_REPLAY_ENGINES)}: {all_replays_identical}."
    )
    table.add_note(
        "Search and baseline share the budget but draw from disjoint "
        "derive_seed streams; the whole experiment is deterministic per seed."
    )
    details["digests"] = digests
    details["beating_pairs"] = beating
    return ExperimentReport(
        experiment_id="E26",
        claim=(
            "Adversarial schedule search finds strictly harder instances "
            "than equal-budget random sampling, and every find replays its "
            "ratio bit-for-bit on both engines"
        ),
        tables=[table],
        verdict=verdict,
        details=details,
    )
