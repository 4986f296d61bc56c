"""Tests for the adversarial search loop: determinism, budget, elitism.

The contract under test (see :mod:`repro.search.loop`): a search outcome
is a pure function of its :class:`~repro.search.loop.SearchConfig` — same
seed and budget reproduce the same best candidate, lineage for lineage;
different seeds explore different lineages; the elitist pool makes the
best-so-far history non-decreasing; and the evaluation budget is consumed
exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.search import (
    SearchConfig,
    SearchError,
    run_random_baseline,
    run_search,
    score_schedules,
)
from repro.search.mutations import materialize_base
from repro.sim.seeding import derive_seed

pytestmark = pytest.mark.search

_SMOKE = dict(
    algorithm="gathering",
    family="uniform",
    n=12,
    budget=24,
    generation_size=6,
    pool_size=3,
    initial_samples=8,
)


class TestDeterminism:
    def test_same_config_reproduces_everything(self):
        first = run_search(SearchConfig(seed=7, **_SMOKE))
        second = run_search(SearchConfig(seed=7, **_SMOKE))
        assert first.best_ratio == second.best_ratio
        assert first.history == second.history
        assert first.best.lineage == second.best.lineage
        assert first.best.base_seed == second.best.base_seed
        np.testing.assert_array_equal(first.best.schedule.i, second.best.schedule.i)
        np.testing.assert_array_equal(first.best.schedule.j, second.best.schedule.j)

    def test_different_seeds_explore_different_lineages(self):
        first = run_search(SearchConfig(seed=1, **_SMOKE))
        second = run_search(SearchConfig(seed=2, **_SMOKE))
        assert (
            first.best.schedule.digest_key() != second.best.schedule.digest_key()
            or first.best.lineage != second.best.lineage
        )

    def test_larger_budget_never_loses_the_best(self):
        small = run_search(SearchConfig(seed=3, **_SMOKE))
        big_params = dict(_SMOKE)
        big_params["budget"] = _SMOKE["budget"] + 2 * _SMOKE["generation_size"]
        big = run_search(SearchConfig(seed=3, **big_params))
        assert big.best_ratio >= small.best_ratio


class TestLoopShape:
    def test_budget_is_consumed_exactly(self):
        outcome = run_search(SearchConfig(seed=0, **_SMOKE))
        assert outcome.evaluations == _SMOKE["budget"]

    def test_history_is_non_decreasing(self):
        outcome = run_search(SearchConfig(seed=0, **_SMOKE))
        assert all(b >= a for a, b in zip(outcome.history, outcome.history[1:]))

    def test_pool_is_sorted_and_bounded(self):
        outcome = run_search(SearchConfig(seed=0, **_SMOKE))
        assert len(outcome.pool) <= _SMOKE["pool_size"]
        scores = [candidate.score for candidate in outcome.pool]
        assert scores == sorted(scores, reverse=True)
        assert outcome.best is outcome.pool[0]

    def test_best_ratio_is_finite_and_at_least_one(self):
        outcome = run_search(SearchConfig(seed=0, **_SMOKE))
        assert math.isfinite(outcome.best_ratio)
        assert outcome.best_ratio >= 1.0


class TestBaseline:
    def test_baseline_is_deterministic_and_budget_sized(self):
        config = SearchConfig(seed=5, **_SMOKE)
        first = run_random_baseline(config)
        second = run_random_baseline(config)
        assert len(first) == config.budget
        assert [m.competitive_ratio for m in first] == [
            m.competitive_ratio for m in second
        ]

    def test_baseline_seeds_are_disjoint_from_search_bases(self):
        config = SearchConfig(seed=5, **_SMOKE)
        base = {
            derive_seed(
                config.seed, "search-base", config.algorithm, config.family,
                config.n, k,
            )
            for k in range(config.initial_samples)
        }
        baseline = {m.seed for m in run_random_baseline(config)}
        assert base.isdisjoint(baseline)


class TestScoring:
    def test_engines_agree_on_scores(self):
        config = SearchConfig(seed=0, **_SMOKE)
        horizon = config.resolved_horizon()
        seeds = [11, 22, 33]
        schedules = [
            materialize_base("uniform", config.n, seed, horizon)
            for seed in seeds
        ]
        per_engine = {}
        for engine in ("reference", "vectorized"):
            metrics = score_schedules(
                SearchConfig(seed=0, engine=engine, **_SMOKE), schedules, seeds
            )
            per_engine[engine] = [
                (m.competitive_ratio, m.duration, m.transmissions)
                for m in metrics
            ]
        assert per_engine["vectorized"] == per_engine["reference"]

    def test_misaligned_seeds_are_rejected(self):
        config = SearchConfig(seed=0, **_SMOKE)
        with pytest.raises(SearchError, match="align"):
            score_schedules(config, [], [1])


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 1},
            {"budget": 0},
            {"pool_size": 0},
            {"generation_size": 0},
            {"initial_samples": 0},
            {"horizon": 2},
            {"engine": "warp"},
            {"sink": 99},
        ],
    )
    def test_bad_configs_are_rejected(self, overrides):
        params = dict(_SMOKE)
        params.update(overrides)
        config = SearchConfig(seed=0, **params)
        with pytest.raises((SearchError, ValueError)):
            run_search(config)
