"""Tests for the experiment modules (reduced parameters for speed).

Each experiment's verdict encodes the paper claim it reproduces; these tests
run them at reduced scale so the full matrix stays fast, while the benchmark
suite runs them at the default (larger) scale.
"""

import argparse
import dataclasses
import math

import pytest

from repro import cli
from repro.algorithms.gathering import Gathering
from repro.experiments import (
    EXPERIMENTS,
    algorithm_lineup,
    run_comparison,
    run_corollary1,
    run_cost_conversion,
    run_lemma1,
    run_theorem1,
    run_theorem10,
    run_theorem11,
    run_theorem2,
    run_theorem3,
    run_theorem4,
    run_theorem5,
    run_theorem6,
    run_theorem7,
    run_theorem8,
    run_theorem9_gathering,
    run_theorem9_waiting,
    run_experiment,
)
from repro.experiments import randomized
from repro.offline.convergecast import opt as offline_opt
from repro.sim.batch import run_sweep_cell
from repro.sim.runner import run_random_trial
from repro.sim.seeding import derive_seed

SMALL_NS = (12, 18, 27, 40)
TRIALS = 8

#: The runners on the one sweep path, at reduced sizes.
SWEEP_RUNNERS = {
    "E7": lambda **knobs: run_theorem7(ns=(8, 12), trials=4, **knobs),
    "E8": lambda **knobs: run_theorem8(ns=(8, 12), trials=4, **knobs),
    "E13": lambda **knobs: run_theorem10(ns=(8, 12), trials=4, **knobs),
    "E15": lambda **knobs: run_cost_conversion(ns=(8, 12), trials=3, **knobs),
    "E16": lambda **knobs: run_comparison(ns=(8, 12), trials=3, **knobs),
}


def spoil_one_trial(monkeypatch, **change):
    """Make the randomized runners' sweeps return one altered trial."""
    sweep = randomized.sweep_random_adversary

    def spoiled(*args, **kwargs):
        result = sweep(*args, **kwargs)
        trials = result.points[-1].trials
        trials[0] = dataclasses.replace(trials[0], **change)
        return result

    monkeypatch.setattr(randomized, "sweep_random_adversary", spoiled)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 26
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 27)}

    def test_run_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_specs_have_claims(self):
        assert all(spec.claim for spec in EXPERIMENTS.values())


class TestImpossibilityExperiments:
    def test_theorem1(self):
        report = run_theorem1(horizon=1500)
        assert report.verdict
        assert report.tables[0].rows

    def test_theorem2(self):
        report = run_theorem2(n=10, horizon_cycles=30, trials=10, estimation_trials=60)
        assert report.verdict

    def test_theorem3(self):
        report = run_theorem3(horizon=1500)
        assert report.verdict


class TestKnowledgeExperiments:
    def test_theorem4(self):
        report = run_theorem4(n=8, delay_rounds=(4, 8, 16))
        assert report.verdict
        costs = report.details["costs"]
        assert costs[-1] > costs[0]

    def test_theorem5(self):
        report = run_theorem5(ns=(6, 10), trees_per_n=3, rounds=10)
        assert report.verdict

    def test_theorem6(self):
        report = run_theorem6(ns=(6, 10), trials_per_n=2)
        assert report.verdict


class TestRandomizedExperiments:
    def test_theorem7(self):
        report = run_theorem7(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict
        assert 1.6 <= report.details["fitted_exponent"] <= 2.4

    def test_theorem8(self):
        report = run_theorem8(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict
        # opt and the run read one committed window, and the full-knowledge
        # run ends with the optimum on every trial.
        for row in report.tables[0].rows:
            assert row["mean_opt"] == row["mean_full_knowledge_run"], row

    @pytest.mark.parametrize(
        "change",
        [
            dict(terminated=False, duration=math.inf, competitive_ratio=math.inf),
            dict(competitive_ratio=1.25),
        ],
        ids=["unterminated", "suboptimal"],
    )
    def test_theorem8_verdict_needs_ratio_one_on_every_trial(self, monkeypatch, change):
        spoil_one_trial(monkeypatch, **change)
        assert not run_theorem8(ns=SMALL_NS, trials=TRIALS, engine="vectorized").verdict

    def test_committed_window_is_the_trials_own(self):
        """A trial's rebuilt window yields the optimum its cell captured."""
        cell = run_sweep_cell(
            lambda n: Gathering(), 12, 4, experiment="theorem7", capture_opt=True
        )
        for trial in cell:
            window = randomized._committed_window(trial)
            assert len(window) == trial.horizon
            assert offline_opt(window, range(12), 0) + 1 == trial.opt_cost

    def test_theorem7_verdict_needs_every_trial_terminated(self, monkeypatch):
        # The mean duration skips unterminated trials, so the verdict checks them.
        spoil_one_trial(monkeypatch, terminated=False, duration=math.inf)
        assert not run_theorem7(ns=SMALL_NS, trials=TRIALS, engine="vectorized").verdict

    def test_corollary1(self):
        report = run_corollary1(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict

    def test_theorem9_waiting(self):
        report = run_theorem9_waiting(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict

    def test_theorem9_gathering(self):
        report = run_theorem9_gathering(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict

    def test_lemma1(self):
        report = run_lemma1(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict

    def test_theorem10(self):
        report = run_theorem10(ns=SMALL_NS, trials=TRIALS)
        assert report.verdict

    def test_theorem11(self):
        report = run_theorem11(ns=(16, 32, 48), trials=6)
        assert report.verdict

    def test_cost_conversion(self):
        report = run_cost_conversion(ns=(12, 18, 27), trials=5)
        assert report.verdict


class TestComparison:
    def test_comparison_ordering(self):
        report = run_comparison(ns=(16, 28), trials=5)
        assert report.verdict
        last = report.details["means_at_largest_n"]
        assert last["full_knowledge"] < last["gathering"]

    def test_reports_render_to_markdown(self):
        report = run_comparison(ns=(12,), trials=3)
        text = report.to_markdown()
        assert "E16" in text
        assert "| n |" in text

    def test_comparison_matches_per_trial_oracle(self):
        """Each mean equals a per-trial loop over the same derived seeds."""
        report = run_comparison(ns=(12, 16), trials=3)
        for row in report.tables[0].rows:
            n = row["n"]
            for name, factory in algorithm_lineup().items():
                durations = [
                    run_random_trial(
                        factory(n), n, derive_seed(0, "comparison", name, n, trial)
                    ).duration
                    for trial in range(3)
                ]
                finite = [d for d in durations if not math.isinf(d)]
                expected = sum(finite) / len(finite) if finite else math.inf
                assert row[name] == expected, (n, name)


class TestOneSweepPath:
    @pytest.mark.parametrize("experiment_id", sorted(SWEEP_RUNNERS))
    def test_report_is_engine_and_worker_invariant(self, experiment_id):
        runner = SWEEP_RUNNERS[experiment_id]
        reference = runner(engine="reference", workers=1)
        vectorized = runner(engine="vectorized", workers=2)
        assert vectorized.to_markdown() == reference.to_markdown()

    @pytest.mark.parametrize(
        "experiment_id", ["E7", "E8", "E13", "E15", "E16", "E18", "E19"]
    )
    def test_cli_passes_engine_and_workers(self, experiment_id, capsys):
        args = argparse.Namespace(engine="vectorized", workers=2)
        kwargs = cli._engine_kwargs(EXPERIMENTS[experiment_id].runner, args)
        assert kwargs == {"engine": "vectorized", "workers": 2}
        assert capsys.readouterr().err == ""
