"""Tests for the extension / ablation experiments (E17–E20, E23)."""

import pytest

from repro.experiments import (
    run_nonuniform_adversary,
    run_offline_crosscheck,
    run_tau_tradeoff,
    run_tree_order_ablation,
    run_vectorized_engine_check,
)
from repro.experiments.registry import EXPERIMENTS


class TestExtensionRegistry:
    def test_extensions_registered(self):
        assert {"E17", "E18", "E19", "E20", "E23"} <= set(EXPERIMENTS)


class TestOfflineCrosscheck:
    def test_fast_opt_matches_brute_force(self):
        report = run_offline_crosscheck(ns=(3, 4, 5), sequences_per_n=10, length=30)
        assert report.verdict
        for row in report.tables[0].rows:
            assert row["agreements"] == row["instances"]


class TestNonUniformAdversaryExperiment:
    def test_skew_shifts_the_bounds(self):
        report = run_nonuniform_adversary(n=24, trials=6)
        assert report.verdict
        means = report.details["means"]
        assert means["active_sink_hub"]["gathering"] < means["uniform"]["gathering"]
        assert means["lazy_sink"]["gathering"] > means["uniform"]["gathering"]


@pytest.mark.parametrize(
    "runner",
    [
        lambda **knobs: run_nonuniform_adversary(n=10, trials=3, **knobs),
        lambda **knobs: run_tau_tradeoff(n=12, trials=3, **knobs),
    ],
    ids=["E18", "E19"],
)
def test_report_is_engine_and_worker_invariant(runner):
    reference = runner(engine="reference", workers=1)
    vectorized = runner(engine="vectorized", workers=2)
    assert vectorized.to_markdown() == reference.to_markdown()


class TestTauTradeoff:
    def test_optimal_exponent_is_half(self):
        report = run_tau_tradeoff(n=40, trials=5)
        assert report.verdict
        means = report.details["means"]
        assert means[0.5] <= means[0.25]
        assert means[0.5] <= means[0.75]


class TestTreeOrderAblation:
    def test_cost_one_for_every_order(self):
        report = run_tree_order_ablation(n=10, trees=3, rounds=8)
        assert report.verdict
        assert all(row["cost"] == 1.0 for row in report.tables[0].rows)


class TestVectorizedEngineCheck:
    def test_vectorized_engine_is_metric_identical(self):
        report = run_vectorized_engine_check(n=18, trials=4)
        assert report.verdict
        for row in report.tables[0].rows:
            assert row["identical"], row
        # One row per (algorithm, adversary) combination.
        assert len(report.tables[0].rows) == 6
        assert report.details["engine"] == "vectorized"

    def test_candidate_engine_is_pluggable(self):
        """The candidate engine is pluggable; the oracle passes trivially."""
        report = run_vectorized_engine_check(
            n=14, trials=3, candidate_engine="reference",
            adversaries=("uniform",),
        )
        assert report.verdict
        assert report.details["engine"] == "reference"
