"""Differential benchmarks: the vectorized engine vs. the reference engine.

Two engine benchmarks share this file:

* the **trial-vectorized gate** — the paper's three-algorithm workload
  (Waiting / Gathering / Waiting Greedy, the Monte-Carlo sweep the
  reproduction's claims rest on) at n >= 100, with each cell executed as
  one :class:`~repro.core.vector_execution.VectorizedExecutor` batch.
  Results must be identical trial for trial to the reference sweep; the
  measured speedup vs. the reference is appended to the
  ``BENCH_engine.json`` trajectory (canonical schema, see
  :func:`bench_utils.normalize_engine_record`);
* the **knowledge-kernel gate** — the three knowledge-heavy algorithms
  (spanning tree / full knowledge / future broadcast) that gained decision
  kernels, at the same n.  Their vectorized cells must run with **zero
  engine fallbacks** (``EngineFallbackWarning`` is an error here), be
  identical trial for trial to the reference sweep, and beat it; the
  record is appended under the distinct engine tag
  ``vectorized_knowledge`` so the long-standing vectorized-vs-reference
  ratchet in ``perf_gate.py`` keeps its single-workload meaning.

The hard speedup floors asserted here are deliberately below the locally
measured figures (recorded in the trajectory) so that a loaded CI machine
cannot flake the suite; regression against the *best recorded* trajectory
value is enforced separately by ``benchmarks/perf_gate.py``.
"""

import time
import warnings

from repro.algorithms.full_knowledge import FullKnowledge
from repro.algorithms.future_broadcast import FutureBroadcast
from repro.algorithms.gathering import Gathering
from repro.algorithms.spanning_tree import SpanningTreeAggregation
from repro.algorithms.waiting import Waiting
from repro.algorithms.waiting_greedy import WaitingGreedy, optimal_tau
from repro.core.vector_execution import EngineFallbackWarning
from repro.sim.parallel import sweep_random_adversary

from bench_utils import record_bench_trajectory

#: The benchmark sweep: acceptance requires n >= 100.
BENCH_N = 120
BENCH_TRIALS = 5
#: CI-safe hard floor for the vectorized engine (locally measured values
#: are ~3x higher and live in the trajectory; perf_gate.py guards those).
MIN_VECTORIZED_VS_REFERENCE = 10.0
#: CI-safe hard floor for the knowledge-kernel gate (locally measured
#: 2.6-5.2x vs reference; perf_gate.py requires and floors the recorded
#: value).
MIN_KNOWLEDGE_VS_REFERENCE = 1.5
#: Each engine is timed this many times and the best run is kept, so a
#: single noisy measurement on a loaded machine cannot fail the gate.
TIMING_ROUNDS = 3

#: The full paper workload for the trial-vectorized gate.
VECTOR_FACTORIES = {
    "waiting": lambda n: Waiting(),
    "gathering": lambda n: Gathering(),
    "waiting_greedy": lambda n: WaitingGreedy(tau=optimal_tau(n)),
}

#: The knowledge-heavy algorithms, newly covered by decision kernels.
KNOWLEDGE_FACTORIES = {
    "spanning_tree": lambda n: SpanningTreeAggregation(),
    "full_knowledge": lambda n: FullKnowledge(),
    "future_broadcast": lambda n: FutureBroadcast(),
}


def _timed_sweep(engine: str, factories) -> "tuple":
    """Run the benchmark sweep on one engine, best wall clock of N rounds.

    The results are identical across rounds (fully seeded); only the timing
    varies, and taking the minimum keeps the speedup gate robust against
    one-off scheduling noise.
    """
    best = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        results = {
            name: sweep_random_adversary(
                factory,
                ns=[BENCH_N],
                trials=BENCH_TRIALS,
                master_seed=7,
                experiment="bench_engine",
                engine=engine,
            )
            for name, factory in factories.items()
        }
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return results, best


def _assert_sweeps_identical(candidate, expected, factories):
    for name in factories:
        for candidate_point, expected_point in zip(
            candidate[name].points, expected[name].points
        ):
            assert candidate_point.trials == expected_point.trials, name


def _measure(factories) -> "tuple":
    """``(reference_seconds, vectorized_seconds)`` of one gate workload.

    The vectorized leg runs with ``EngineFallbackWarning`` promoted to an
    error and is asserted trial-identical to the reference sweep.
    """
    reference, reference_seconds = _timed_sweep("reference", factories)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        vectorized, vectorized_seconds = _timed_sweep("vectorized", factories)
    _assert_sweeps_identical(vectorized, reference, factories)
    return reference_seconds, vectorized_seconds


def measure_vectorized_engine():
    """One full vectorized-gate measurement (shared with perf_gate.py).

    Returns ``(reference_seconds, vectorized_seconds)`` for the
    three-algorithm n=120 sweep, after asserting that the vectorized sweep
    reproduces the reference sweep trial for trial.
    """
    return _measure(VECTOR_FACTORIES)


def _record_and_report(engine, factories, reference_seconds, vectorized_seconds):
    speedup = reference_seconds / vectorized_seconds
    record_bench_trajectory(
        "engine",
        {
            "engine": engine,
            "baseline": "reference",
            "adversary": "uniform",
            "algorithms": sorted(factories),
            "n": BENCH_N,
            "trials": BENCH_TRIALS,
            "seconds": round(vectorized_seconds, 6),
            "baseline_seconds": round(reference_seconds, 6),
            "speedup": round(speedup, 3),
        },
    )
    print(
        f"\n{engine} benchmark (n={BENCH_N}, trials={BENCH_TRIALS}, "
        f"algorithms={sorted(factories)}): reference "
        f"{reference_seconds:.3f}s, vectorized {vectorized_seconds:.3f}s "
        f"-> {speedup:.1f}x vs reference"
    )
    return speedup


def test_vectorized_engine_speedup_and_equality(benchmark):
    """The trial-vectorized engine reproduces the paper sweep, much faster."""
    (reference_seconds, vectorized_seconds) = benchmark.pedantic(
        measure_vectorized_engine, rounds=1, iterations=1, warmup_rounds=0
    )
    vs_reference = _record_and_report(
        "vectorized", VECTOR_FACTORIES, reference_seconds, vectorized_seconds
    )
    benchmark.extra_info["n"] = BENCH_N
    benchmark.extra_info["trials"] = BENCH_TRIALS
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["vectorized_seconds"] = vectorized_seconds
    benchmark.extra_info["speedup_vs_reference"] = vs_reference
    assert vs_reference >= MIN_VECTORIZED_VS_REFERENCE, (
        f"vectorized speedup {vs_reference:.2f}x vs reference below the CI "
        f"floor {MIN_VECTORIZED_VS_REFERENCE:.0f}x"
    )


def measure_knowledge_engines():
    """One full knowledge-kernel-gate measurement (shared with perf_gate.py).

    Returns ``(reference_seconds, vectorized_seconds)`` for the three
    knowledge-heavy algorithms on the n=120 sweep.  The gate's premise is
    that these algorithms run through their own decision kernels, so a
    single fallback trial fails the measurement.
    """
    return _measure(KNOWLEDGE_FACTORIES)


def test_knowledge_kernel_speedup_and_equality(benchmark):
    """The newly kernelized algorithms beat the reference, zero fallbacks."""
    (reference_seconds, vectorized_seconds) = benchmark.pedantic(
        measure_knowledge_engines, rounds=1, iterations=1, warmup_rounds=0
    )
    vs_reference = _record_and_report(
        "vectorized_knowledge", KNOWLEDGE_FACTORIES,
        reference_seconds, vectorized_seconds,
    )
    benchmark.extra_info["n"] = BENCH_N
    benchmark.extra_info["trials"] = BENCH_TRIALS
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["vectorized_seconds"] = vectorized_seconds
    benchmark.extra_info["speedup_vs_reference"] = vs_reference
    assert vs_reference >= MIN_KNOWLEDGE_VS_REFERENCE, (
        f"knowledge-kernel speedup {vs_reference:.2f}x vs reference below "
        f"the CI floor {MIN_KNOWLEDGE_VS_REFERENCE:.1f}x"
    )


def test_parallel_vectorized_cells_match_serial(benchmark):
    """workers x vectorized cells reproduces the serial sweep bit for bit."""
    factory = VECTOR_FACTORIES["waiting"]
    serial = sweep_random_adversary(
        factory,
        ns=[60, 90, BENCH_N],
        trials=BENCH_TRIALS,
        master_seed=7,
        experiment="bench_engine",
        engine="reference",
    )
    parallel = benchmark.pedantic(
        lambda: sweep_random_adversary(
            factory,
            ns=[60, 90, BENCH_N],
            trials=BENCH_TRIALS,
            master_seed=7,
            experiment="bench_engine",
            engine="vectorized",
            workers=3,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    for serial_point, parallel_point in zip(serial.points, parallel.points):
        assert parallel_point.trials == serial_point.trials
    benchmark.extra_info["workers"] = 3
    benchmark.extra_info["identical_to_serial"] = True
