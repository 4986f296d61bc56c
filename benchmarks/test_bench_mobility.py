"""Differential benchmark: vectorized mobility sweeps vs. the reference engine.

Runs the same mobility-adversary sweep (``community`` and ``waypoint``
families, n >= 100) through the reference engine and the vectorized engine
(one ``VectorizedExecutor.run_many`` invocation per sweep cell), asserts
the results are identical trial for trial, and that the vectorized sweep
is measurably faster.  Timings are appended to the ``BENCH_engine.json``
trajectory under the engine tag ``vectorized_mobility``, apart from the
uniform-adversary ``vectorized`` records the perf gate ratchets.
"""

import time

from repro.algorithms.waiting import Waiting
from repro.sim.parallel import sweep_random_adversary

from bench_utils import record_bench_trajectory

BENCH_N = 100
BENCH_TRIALS = 5
FAMILIES = ("community", "waypoint")
#: The sampling cost of the committed mobility future is shared by both
#: engines, so the gate is lower than the uniform-adversary benchmark's.
MIN_SPEEDUP = 1.5
#: Best of N timing rounds, so one noisy measurement cannot fail the gate.
TIMING_ROUNDS = 3


def _timed(run) -> "tuple":
    best = None
    result = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _sweeps(engine: str) -> dict:
    return {
        family: sweep_random_adversary(
            lambda n: Waiting(),
            ns=[BENCH_N],
            trials=BENCH_TRIALS,
            master_seed=7,
            experiment="bench_mobility",
            engine=engine,
            adversary=family,
        )
        for family in FAMILIES
    }


def test_vectorized_mobility_sweep_speedup_and_equality(benchmark):
    """The vectorized sweep reproduces the reference mobility sweeps, faster."""
    reference, reference_seconds = _timed(lambda: _sweeps("reference"))
    vectorized, vectorized_seconds = benchmark.pedantic(
        _timed, args=(lambda: _sweeps("vectorized"),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    for family in FAMILIES:
        for ref_point, point in zip(
            reference[family].points, vectorized[family].points
        ):
            assert point.trials == ref_point.trials, family

    speedup = reference_seconds / vectorized_seconds
    benchmark.extra_info["n"] = BENCH_N
    benchmark.extra_info["trials"] = BENCH_TRIALS
    benchmark.extra_info["families"] = list(FAMILIES)
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["vectorized_seconds"] = vectorized_seconds
    benchmark.extra_info["speedup"] = speedup
    record_bench_trajectory(
        "engine",
        {
            "engine": "vectorized_mobility",
            "baseline": "reference",
            "adversary": "+".join(FAMILIES),
            "algorithms": ["waiting"],
            "n": BENCH_N,
            "trials": BENCH_TRIALS,
            "seconds": round(vectorized_seconds, 6),
            "baseline_seconds": round(reference_seconds, 6),
            "speedup": round(speedup, 3),
        },
    )
    print(
        f"\nmobility sweep benchmark (n={BENCH_N}, trials={BENCH_TRIALS}, "
        f"families={list(FAMILIES)}): reference {reference_seconds:.3f}s, "
        f"vectorized {vectorized_seconds:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized mobility sweep speedup {speedup:.2f}x below the required "
        f"{MIN_SPEEDUP:.1f}x (reference {reference_seconds:.3f}s, "
        f"vectorized {vectorized_seconds:.3f}s)"
    )
