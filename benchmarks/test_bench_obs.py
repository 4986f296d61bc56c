"""Observability overhead gate: tracing must never spend the speedups.

The instrumentation added to the engines (``docs/observability.md``) is
guarded by the no-op collector contract: with the default
:class:`~repro.obs.NoopCollector` installed, the per-batch cost is one
``current_collector()`` lookup plus a handful of constant-time calls on
a disabled object.  This file holds the engines to that promise at the
perf-gate workload (the three-algorithm n=120 vectorized sweep):

* with an explicitly installed no-op collector the vectorized engine
  must still clear ``MIN_VECTORIZED_VS_REFERENCE`` — the same CI floor
  ``perf_gate.py`` enforces, so instrumentation overhead would fail here
  before it fails the ratchet;
* with a *recording* collector the speedup floor must still hold (span
  recording is per-batch, not per-interaction) and the recorded trace
  must carry the engine spans — tracing a benchmark run is free enough
  to leave on.
"""

from repro.obs import NoopCollector, RecordingCollector, use_collector

from test_bench_engine import (
    BENCH_N,
    BENCH_TRIALS,
    MIN_VECTORIZED_VS_REFERENCE,
    VECTOR_FACTORIES,
    measure_vectorized_engine,
)


def test_noop_collector_keeps_vectorized_above_perf_floor(benchmark):
    """Instrumented hot paths with tracing off still clear the CI floor."""
    with use_collector(NoopCollector()):
        (reference_seconds, vectorized_seconds) = benchmark.pedantic(
            measure_vectorized_engine, rounds=1, iterations=1, warmup_rounds=0
        )
    vs_reference = reference_seconds / vectorized_seconds
    benchmark.extra_info["n"] = BENCH_N
    benchmark.extra_info["trials"] = BENCH_TRIALS
    benchmark.extra_info["speedup_vs_reference"] = vs_reference
    print(
        f"\nobs overhead benchmark (noop collector, n={BENCH_N}, "
        f"trials={BENCH_TRIALS}, algorithms={sorted(VECTOR_FACTORIES)}): "
        f"reference {reference_seconds:.3f}s, vectorized "
        f"{vectorized_seconds:.3f}s -> {vs_reference:.1f}x"
    )
    assert vs_reference >= MIN_VECTORIZED_VS_REFERENCE, (
        f"vectorized speedup {vs_reference:.2f}x with the no-op collector "
        f"fell below the perf-gate floor {MIN_VECTORIZED_VS_REFERENCE:.0f}x — "
        "instrumentation is leaking cost into the hot path"
    )


def test_recording_collector_overhead_stays_per_batch():
    """Even full recording keeps the floor and captures the engine spans."""
    collector = RecordingCollector()
    with use_collector(collector):
        (reference_seconds, vectorized_seconds) = measure_vectorized_engine()
    vs_reference = reference_seconds / vectorized_seconds
    assert vs_reference >= MIN_VECTORIZED_VS_REFERENCE, (
        f"vectorized speedup {vs_reference:.2f}x under a recording collector "
        f"fell below the perf-gate floor {MIN_VECTORIZED_VS_REFERENCE:.0f}x"
    )
    names = {span.name for span in collector.spans}
    assert "engine.run_many" in names
    assert "engine.lockstep" in names
