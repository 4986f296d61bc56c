"""Micro-benchmark: tune the vectorized engine's window cap.

Sweeps the committed-future window consumed per engine step over a range of
powers of two, running the standard n=120 vectorized cell (``gathering`` +
``waiting``: one dense-event and one sparse-event workload) at each size.
Two things are asserted:

* **correctness is block-size independent** — every size reproduces the
  reference metrics trial for trial (the block boundaries are pure
  consumption windows, never semantics);
* the engine's **default** (:data:`repro.core.vector_execution.
  DEFAULT_BLOCK_SIZE`, the cap of each trial's doubling window schedule)
  is not badly mistuned: it must reach at least half the throughput of the
  best size measured in this run.

Sweep cells take no window option, so each size is measured by patching
the module default for the duration of the run.

The measured table is printed and appended to ``BENCH_blocksize.json`` so
the tuning can be revisited when the workload shape changes.
"""

import time
from unittest import mock

from repro.algorithms.gathering import Gathering
from repro.algorithms.waiting import Waiting
from repro.core import vector_execution
from repro.core.vector_execution import DEFAULT_BLOCK_SIZE
from repro.sim.batch import run_sweep_cell

from bench_utils import record_bench_trajectory

BENCH_N = 120
BENCH_TRIALS = 5
BLOCK_SIZES = (1024, 2048, 4096, 8192, 16384, 32768)
TIMING_ROUNDS = 3

FACTORIES = {
    "gathering": lambda n: Gathering(),
    "waiting": lambda n: Waiting(),
}


def _run_cells(block_size):
    with mock.patch.object(vector_execution, "DEFAULT_BLOCK_SIZE", block_size):
        return {
            name: run_sweep_cell(
                factory,
                BENCH_N,
                BENCH_TRIALS,
                master_seed=7,
                experiment="bench_blocksize",
                engine="vectorized",
            )
            for name, factory in FACTORIES.items()
        }


def test_block_size_tuning(benchmark):
    """Every block size is exact; the default is competitively tuned."""
    expected = {
        name: run_sweep_cell(
            factory,
            BENCH_N,
            BENCH_TRIALS,
            master_seed=7,
            experiment="bench_blocksize",
            engine="reference",
        )
        for name, factory in FACTORIES.items()
    }

    def measure():
        timings = {}
        for block_size in BLOCK_SIZES:
            best = None
            for _ in range(TIMING_ROUNDS):
                started = time.perf_counter()
                cells = _run_cells(block_size)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            assert cells == expected, block_size
            timings[block_size] = best
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    best_size = min(timings, key=timings.get)
    default_seconds = timings.get(DEFAULT_BLOCK_SIZE)
    if default_seconds is None:
        best_default = None
        for _ in range(TIMING_ROUNDS):
            started = time.perf_counter()
            _run_cells(DEFAULT_BLOCK_SIZE)
            elapsed = time.perf_counter() - started
            best_default = (
                elapsed if best_default is None else min(best_default, elapsed)
            )
        default_seconds = best_default
    print(f"\nblock-size tuning (n={BENCH_N}, trials={BENCH_TRIALS}):")
    for block_size in BLOCK_SIZES:
        marker = " <- best" if block_size == best_size else (
            " <- default" if block_size == DEFAULT_BLOCK_SIZE else ""
        )
        print(f"  block {block_size:6d}: {timings[block_size] * 1000:7.2f} ms{marker}")
    benchmark.extra_info["timings_ms"] = {
        str(k): round(v * 1000, 3) for k, v in timings.items()
    }
    benchmark.extra_info["best_block_size"] = best_size
    benchmark.extra_info["default_block_size"] = DEFAULT_BLOCK_SIZE
    record_bench_trajectory(
        "blocksize",
        {
            "n": BENCH_N,
            "trials": BENCH_TRIALS,
            "algorithms": sorted(FACTORIES),
            "timings_ms": {
                str(k): round(v * 1000, 3) for k, v in timings.items()
            },
            "best_block_size": best_size,
            "default_block_size": DEFAULT_BLOCK_SIZE,
        },
    )
    assert default_seconds <= 2.0 * timings[best_size], (
        f"default block size {DEFAULT_BLOCK_SIZE} ({default_seconds * 1000:.1f} ms) is "
        f"more than 2x slower than the best measured size {best_size} "
        f"({timings[best_size] * 1000:.1f} ms) — retune the default"
    )
