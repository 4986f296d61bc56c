"""Unit tests for the simulation harness (seeding, metrics, results, runner)."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.execution import Executor, run_algorithm
from repro.core.interaction import InteractionSequence
from repro.core.vector_execution import VectorizedExecutor
from repro.obs import RecordingCollector, use_collector
from repro.sim.batch import run_sweep_cell
from repro.sim.metrics import TrialMetrics, durations, mean_duration, termination_rate
from repro.sim.parallel import run_sweep_cells, sweep_random_adversary
from repro.sim.results import ExperimentReport, ResultTable
from repro.sim.runner import (
    ENGINES,
    default_horizon,
    resolve_engine,
    run_random_trial,
)
from repro.sim.seeding import derive_seed, trial_seeds

SWEEP_SHAPES = [
    (engine, workers) for engine in ("reference", "vectorized") for workers in (1, 3)
]


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "exp", 10, 0) == derive_seed(1, "exp", 10, 0)

    def test_derive_seed_sensitive_to_components(self):
        seeds = {
            derive_seed(1, "exp", 10, 0),
            derive_seed(1, "exp", 10, 1),
            derive_seed(1, "exp", 11, 0),
            derive_seed(2, "exp", 10, 0),
            derive_seed(1, "other", 10, 0),
        }
        assert len(seeds) == 5

    def test_trial_seeds_distinct(self):
        seeds = trial_seeds(0, "exp", 16, 20)
        assert len(set(seeds)) == 20

    def test_seed_fits_in_63_bits(self):
        assert 0 <= derive_seed(99, "x") < 2 ** 63


class TestMetrics:
    def _metric(self, terminated, duration):
        return TrialMetrics(
            n=10,
            seed=0,
            algorithm="gathering",
            terminated=terminated,
            duration=duration,
            transmissions=9,
            horizon=1000,
            sink_coverage=10,
        )

    def test_from_result(self):
        sequence = InteractionSequence.from_pairs([(2, 1), (1, 0)])
        result = run_algorithm(Gathering(), sequence, [0, 1, 2], sink=0)
        metrics = TrialMetrics.from_result(result, n=3, seed=1, algorithm="gathering", horizon=2)
        assert metrics.terminated
        assert metrics.duration == 2.0
        assert metrics.transmissions == 2

    def test_aggregations(self):
        sample = [self._metric(True, 10.0), self._metric(True, 20.0), self._metric(False, math.inf)]
        assert durations(sample) == [10.0, 20.0]
        assert termination_rate(sample) == pytest.approx(2 / 3)
        assert mean_duration(sample) == 15.0

    def test_mean_duration_all_failed(self):
        sample = [self._metric(False, math.inf)]
        assert math.isinf(mean_duration(sample))

    def test_termination_rate_empty_rejected(self):
        with pytest.raises(ValueError):
            termination_rate([])


class TestResultTable:
    def test_add_row_and_columns(self):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        assert table.column("a") == [1]
        with pytest.raises(ValueError):
            table.add_row(c=1)
        with pytest.raises(KeyError):
            table.column("missing")

    def test_markdown_rendering(self):
        table = ResultTable(title="demo", columns=["n", "value"])
        table.add_row(n=10, value=3.14159)
        table.add_note("a note")
        text = table.to_markdown()
        assert "### demo" in text
        assert "| n | value |" in text
        assert "3.142" in text
        assert "- a note" in text

    def test_csv_and_json(self):
        table = ResultTable(title="demo", columns=["n"])
        table.add_row(n=5)
        assert "n\r\n5" in table.to_csv() or "n\n5" in table.to_csv()
        assert '"title": "demo"' in table.to_json()

    def test_infinite_cells_render(self):
        table = ResultTable(title="demo", columns=["x"])
        table.add_row(x=math.inf)
        assert "inf" in table.to_markdown()

    def test_experiment_report_markdown(self):
        table = ResultTable(title="demo", columns=["n"])
        table.add_row(n=5)
        report = ExperimentReport(
            experiment_id="E0",
            claim="a claim",
            tables=[table],
            verdict=True,
            details={"k": 1.5},
        )
        text = report.to_markdown()
        assert "E0" in text
        assert "reproduced" in text
        assert "k: 1.500" in text


class TestRunner:
    def test_default_horizon_scales(self):
        assert default_horizon(Gathering(), 100) > default_horizon(Gathering(), 10)
        greedy = WaitingGreedy(tau=optimal_tau(50))
        assert default_horizon(greedy, 50) > 0

    def test_run_random_trial_deterministic(self):
        a = run_random_trial(Gathering(), 15, seed=7)
        b = run_random_trial(Gathering(), 15, seed=7)
        assert a.duration == b.duration
        assert a.terminated and b.terminated

    def test_run_random_trial_sink_validation(self):
        with pytest.raises(ValueError):
            run_random_trial(Gathering(), 10, seed=0, sink=99)

    def test_run_random_trial_with_knowledge_algorithm(self):
        metrics = run_random_trial(WaitingGreedy(tau=optimal_tau(15)), 15, seed=1)
        assert metrics.terminated

    def test_sweep_produces_points_in_order(self):
        sweep = sweep_random_adversary(
            lambda n: Gathering(), ns=[8, 12], trials=3, master_seed=1
        )
        assert sweep.ns == [8, 12]
        assert all(point.termination_rate == 1.0 for point in sweep.points)
        assert sweep.mean_durations[0] < sweep.mean_durations[1]

    def test_sweep_to_table(self):
        sweep = sweep_random_adversary(
            lambda n: Gathering(), ns=[8], trials=2, master_seed=1
        )
        table = sweep.to_table()
        assert table.rows[0]["n"] == 8
        assert table.rows[0]["trials"] == 2


class TestEngineResolution:
    def test_known_engines(self):
        assert set(ENGINES) == {"reference", "vectorized"}
        assert resolve_engine("reference") is Executor
        assert resolve_engine("vectorized") is VectorizedExecutor

    def test_legacy_fast_name_runs_vectorized(self):
        assert resolve_engine("fast") is VectorizedExecutor

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("warp")
        with pytest.raises(ValueError):
            run_random_trial(Gathering(), 8, seed=0, engine="warp")


class TestSweepDeterminism:
    """The one sweep path: identical trials for every engine and worker count."""

    @pytest.mark.parametrize("engine,workers", SWEEP_SHAPES)
    def test_sweep_reproduces_serial_reference(self, engine, workers):
        factory = lambda n: Gathering()
        serial = sweep_random_adversary(
            factory, ns=[8, 12], trials=4, master_seed=11, engine="reference"
        )
        sweep = sweep_random_adversary(
            factory, ns=[8, 12], trials=4, master_seed=11, engine=engine,
            workers=workers,
        )
        assert sweep.algorithm == serial.algorithm
        assert sweep.ns == serial.ns
        for point, expected in zip(sweep.points, serial.points):
            assert point.trials == expected.trials

    @pytest.mark.parametrize("engine,workers", SWEEP_SHAPES)
    def test_sweep_with_knowledge_algorithm(self, engine, workers):
        factory = lambda n: WaitingGreedy(tau=optimal_tau(n))
        serial = sweep_random_adversary(
            factory, ns=[10, 11], trials=3, master_seed=2, engine="reference"
        )
        sweep = sweep_random_adversary(
            factory, ns=[10, 11], trials=3, master_seed=2, engine=engine,
            workers=workers,
        )
        for point, expected in zip(sweep.points, serial.points):
            assert point.trials == expected.trials

    @pytest.mark.parametrize("engine,workers", SWEEP_SHAPES)
    def test_empty_ns_rejected(self, engine, workers):
        with pytest.raises(ValueError):
            sweep_random_adversary(
                lambda n: Gathering(), ns=[], trials=3, engine=engine,
                workers=workers,
            )

    @pytest.mark.parametrize("engine,workers", SWEEP_SHAPES)
    def test_invalid_trials_rejected(self, engine, workers):
        with pytest.raises(ValueError):
            sweep_random_adversary(
                lambda n: Gathering(), ns=[8], trials=0, engine=engine,
                workers=workers,
            )

    @pytest.mark.parametrize("engine", ("reference", "vectorized"))
    def test_invalid_workers_rejected(self, engine):
        with pytest.raises(ValueError):
            sweep_random_adversary(
                lambda n: Gathering(), ns=[8], trials=3, engine=engine, workers=0
            )

    @pytest.mark.parametrize("engine", ("reference", "vectorized"))
    def test_trial_ranges_concatenate_to_the_cell(self, engine):
        kwargs = dict(n=9, master_seed=4, engine=engine, capture_opt=True)
        factory = lambda n: WaitingGreedy(tau=optimal_tau(n))
        whole = run_sweep_cell(factory, trials=5, **kwargs)
        head = run_sweep_cell(factory, trials=2, **kwargs)
        tail = run_sweep_cell(factory, trials=3, first_trial=2, **kwargs)
        assert head + tail == whole
        with pytest.raises(ValueError):
            run_sweep_cell(factory, trials=2, first_trial=-1, **kwargs)

    @pytest.mark.parametrize(
        "engine,workers,ranges",
        [("reference", 1, [5]), ("reference", 3, [1, 2, 2]),
         ("reference", 8, [1, 1, 1, 1, 1]), ("vectorized", 1, [5]),
         ("vectorized", 3, [1, 2, 2])],
    )
    def test_single_n_sweep_work_units(self, engine, workers, ranges):
        """Workers split a cell into one contiguous trial range each."""
        factory = lambda n: Gathering()
        serial = sweep_random_adversary(
            factory, ns=[10], trials=5, master_seed=3, engine="reference"
        )
        collector = RecordingCollector()
        with use_collector(collector):
            sweep = sweep_random_adversary(
                factory, ns=[10], trials=5, master_seed=3, engine=engine,
                workers=workers,
            )
        assert sweep.points[0].trials == serial.points[0].trials
        cells = [span for span in collector.spans if span.name == "sweep.cell"]
        assert sorted(dict(span.args)["trials"] for span in cells) == ranges
        # Several work units run in worker processes, a lone one in-process.
        in_workers = {span.pid != os.getpid() for span in cells}
        assert in_workers == {len(ranges) > 1}

    @pytest.mark.parametrize("engine,workers", SWEEP_SHAPES)
    def test_too_small_n_rejected_before_running(self, engine, workers):
        # n < 2 used to crash mid-sweep inside the adversary constructor.
        with pytest.raises(ValueError):
            sweep_random_adversary(
                lambda n: Gathering(), ns=[1, 8], trials=2, engine=engine,
                workers=workers,
            )


#: Runs three cells on two workers; the middle cell's factory SIGKILLs the
#: worker that runs it.  Exits 0 only if the sweep raises BrokenProcessPool.
KILLED_WORKER_SCRIPT = """
import os, signal, sys
from concurrent.futures.process import BrokenProcessPool

from repro.algorithms.gathering import Gathering
from repro.sim.parallel import run_sweep_cells

parent = os.getpid()


def killer(n):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return Gathering()


cells = [
    dict(algorithm_factory=factory, n=8, trials=2)
    for factory in (lambda n: Gathering(), killer, lambda n: Gathering())
]
try:
    for _ in run_sweep_cells(cells, workers=2):
        pass
except BrokenProcessPool:
    sys.exit(0)
sys.exit("the sweep finished without raising BrokenProcessPool")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="worker pools need fork")
class TestWorkerPool:
    def test_dead_worker_raises_instead_of_hanging(self):
        # A subprocess with a timeout: a hang must fail the test, not the suite.
        result = subprocess.run(
            [sys.executable, "-c", KILLED_WORKER_SCRIPT],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr

    def test_early_close_does_not_wait_for_running_cells(self):
        def slow(n):
            time.sleep(2)
            return Gathering()

        cells = [dict(algorithm_factory=lambda n: Gathering(), n=8, trials=1)]
        cells += [dict(algorithm_factory=slow, n=8, trials=1)] * 3
        iterator = run_sweep_cells(cells, workers=2)
        assert len(next(iterator)) == 1
        started = time.monotonic()
        iterator.close()
        assert time.monotonic() - started < 1.0
