"""CI perf-regression gate for the trial-vectorized engine and opt kernel.

Compares the **latest** vectorized-vs-reference record of the
``BENCH_engine.json`` trajectory — in CI that is the record the preceding
``pytest benchmarks`` step appended moments earlier, on the same machine —
against the best *prior* records, and fails (exit code 1) on a regression.
Reading the fresh record instead of re-measuring keeps the gate free and
avoids double-running the most expensive benchmark of the job.

Speedups are wall-clock *ratios*, far more hardware-portable than absolute
timings — but not perfectly so: a committed development-machine record can
legitimately sit above what a loaded 2-core CI runner measures.  The gate
therefore applies two tolerances:

* **same machine class** (matching ``host`` fingerprint, see
  :func:`bench_utils.machine_fingerprint`): the measured speedup must stay
  within 30% of the best prior record — the tight ratchet the trajectory
  is for.  It engages wherever records accumulate from the same machine
  class: locally against the committed trajectory, and on CI only when a
  committed record's host matches the runner class (ephemeral runners do
  not commit their own records back);
* **any machine**: the measured speedup must stay within 60% of the best
  prior record anywhere — a catastrophic-regression guard that still
  catches an engine collapse (e.g. 32x -> 8x) without flaking on hardware
  spread.  This floor is additionally capped at the benchmark suite's own
  CI-safe hard floor (``MIN_VECTORIZED_VS_REFERENCE``), so a machine the
  suite considers healthy can never fail the gate.

When the trajectory holds no vectorized record at all (fresh clone, or
after trimming stray records), the gate measures once via
``test_bench_engine.measure_vectorized_engine``, **appends** the result as
the trajectory's first vectorized record (when ``REPRO_BENCH_RECORD=1``,
like every trajectory write), and passes — so the very next run has
something to guard against.  ``--measure`` forces that path;
``--require-record`` (the CI mode) forbids it, failing with a clear
message instead when no record exists — in CI a missing record means the
preceding benchmark step silently failed to record, which the gate must
surface rather than paper over.  A trajectory file that exists but is
empty or unparseable always fails with a clear message (exit code 2),
never a traceback.

The gate also covers the competitive-ratio subsystem's offline-optimum
kernel (:func:`opt_kernel_records`, appended by
``benchmarks/test_bench_opt.py``): ``--require-record`` demands that a
``ratio_kernel`` record exists and its recorded speedup stays above the
subsystem's acceptance floor (>= 10x vs per-sequence Python).

A third record family covers the **knowledge-kernel** workload — the
three knowledge-heavy algorithms (spanning tree / full knowledge / future
broadcast) that run trial-vectorized through their own decision kernels
(:func:`knowledge_kernel_records`, appended by
``test_bench_engine.test_knowledge_kernel_speedup_and_equality`` under
the distinct engine tag ``vectorized_knowledge`` so the main vectorized
ratchet keeps its single-workload meaning).  ``--require-record`` demands
that a vectorized_knowledge-vs-reference record exists and its recorded
speedup stays above ``MIN_KNOWLEDGE_VS_REFERENCE``.

Run from the repository root::

    PYTHONPATH=src:benchmarks python benchmarks/perf_gate.py

The gate is wired into the CI ``benchmarks`` job (``.github/workflows/
ci.yml``) directly after the benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

#: Tolerated drop below the best prior record from the same machine class.
SAME_HOST_TOLERANCE = 0.30
#: Tolerated drop below the best prior record from any machine.
CROSS_HOST_TOLERANCE = 0.60


class TrajectoryError(RuntimeError):
    """The benchmark trajectory file is unusable (empty, corrupt, wrong shape)."""


def load_trajectory() -> list:
    """The BENCH_engine.json trajectory, or ``[]`` when the file is absent.

    An absent file is a legitimate bootstrap state (fresh clone before any
    benchmark ran); an *unreadable* one is not — empty files, invalid JSON
    and non-list payloads raise :class:`TrajectoryError` with a message
    naming the file and the fix, instead of surfacing a raw traceback.
    """
    path = BENCH_DIR / "BENCH_engine.json"
    if not path.exists():
        return []
    text = path.read_text(encoding="utf-8").strip()
    regenerate = (
        "delete the file and re-run the benchmarks to regenerate it "
        "(REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest benchmarks "
        "-x -q -s)"
    )
    if not text:
        raise TrajectoryError(f"{path} exists but is empty; {regenerate}")
    try:
        trajectory = json.loads(text)
    except json.JSONDecodeError as error:
        raise TrajectoryError(
            f"{path} is not valid JSON ({error}); {regenerate}"
        ) from None
    if not isinstance(trajectory, list):
        raise TrajectoryError(
            f"{path} must contain a JSON list of benchmark records, "
            f"found {type(trajectory).__name__}; {regenerate}"
        )
    return trajectory


def vectorized_records() -> list:
    """All vectorized-vs-reference records, in trajectory order.

    Raises:
        TrajectoryError: if the trajectory file exists but is unreadable.
    """
    return [
        record
        for record in load_trajectory()
        if record.get("engine") == "vectorized"
        and record.get("baseline") == "reference"
    ]


def opt_kernel_records() -> list:
    """All ratio-kernel-vs-per-sequence-Python records, in trajectory order.

    These are appended by ``benchmarks/test_bench_opt.py`` (the offline-
    optimum kernel of the competitive-ratio subsystem).

    Raises:
        TrajectoryError: if the trajectory file exists but is unreadable.
    """
    return [
        record
        for record in load_trajectory()
        if record.get("engine") == "ratio_kernel"
        and record.get("baseline") == "offline_python"
    ]


def knowledge_kernel_records() -> list:
    """All vectorized_knowledge-vs-reference records, in trajectory order.

    These are appended by ``test_bench_engine.
    test_knowledge_kernel_speedup_and_equality`` (the decision kernels of
    the knowledge-heavy algorithms: spanning tree, full knowledge, future
    broadcast).

    Raises:
        TrajectoryError: if the trajectory file exists but is unreadable.
    """
    return [
        record
        for record in load_trajectory()
        if record.get("engine") == "vectorized_knowledge"
        and record.get("baseline") == "reference"
    ]


def check_knowledge_kernel(
    records: list, require_record: bool, gates: dict | None = None
) -> int:
    """Gate the knowledge-kernel record: presence (CI mode) and hard floor.

    Like the opt kernel, this workload gets a single acceptance floor
    (the same ``MIN_KNOWLEDGE_VS_REFERENCE`` the benchmark asserts)
    rather than a ratchet: both engines share the per-trial plan/oracle
    construction cost, which dominates the workload, so a host-relative
    ratchet would mostly track noise.  Returns the exit-code contribution
    (0 ok, 1 regression, 2 missing required record).
    """
    if not records:
        if require_record:
            print(
                "perf gate error: BENCH_engine.json holds no "
                "vectorized_knowledge-vs-reference record; the benchmark step "
                "that precedes the gate should have appended one (run "
                "REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest "
                "benchmarks/test_bench_engine.py -x -q -s)"
            )
            if gates is not None:
                gates["knowledge_kernel"] = {"ok": False, "error": "missing record"}
            return 2
        print("no knowledge-kernel record yet; knowledge gate passes (bootstrap)")
        if gates is not None:
            gates["knowledge_kernel"] = {"ok": True, "bootstrap": True}
        return 0
    from test_bench_engine import MIN_KNOWLEDGE_VS_REFERENCE

    latest = records[-1]["speedup"]
    if gates is not None:
        gates["knowledge_kernel"] = {
            "ok": latest >= MIN_KNOWLEDGE_VS_REFERENCE,
            "speedup": latest,
            "floor": MIN_KNOWLEDGE_VS_REFERENCE,
            "margin": round(latest - MIN_KNOWLEDGE_VS_REFERENCE, 3),
            "record": records[-1],
        }
    print(
        f"latest recorded knowledge-kernel speedup: {latest:.1f}x vs the "
        f"reference engine (floor {MIN_KNOWLEDGE_VS_REFERENCE:.1f}x)"
    )
    if latest < MIN_KNOWLEDGE_VS_REFERENCE:
        print(
            f"FAIL: knowledge-kernel speedup {latest:.1f}x below the "
            f"{MIN_KNOWLEDGE_VS_REFERENCE:.1f}x floor"
        )
        return 1
    return 0


def check_opt_kernel(
    records: list, require_record: bool, gates: dict | None = None
) -> int:
    """Gate the opt-kernel record: presence (CI mode) and hard floor.

    The opt kernel has a single acceptance floor (>= 10x, the same one
    ``test_bench_opt.py`` asserts) rather than a ratchet: its wall-clock
    is dominated by one numpy sweep, so the two-tier host tolerance of the
    engine gate adds nothing.  Returns the exit-code contribution (0 ok,
    1 regression, 2 missing required record).
    """
    if not records:
        if require_record:
            print(
                "perf gate error: BENCH_engine.json holds no ratio_kernel-"
                "vs-offline_python record; the benchmark step that precedes "
                "the gate should have appended one (run REPRO_BENCH_RECORD=1 "
                "PYTHONPATH=src python -m pytest benchmarks/test_bench_opt.py "
                "-x -q -s)"
            )
            if gates is not None:
                gates["ratio_kernel"] = {"ok": False, "error": "missing record"}
            return 2
        print("no opt-kernel record yet; opt gate passes (bootstrap)")
        if gates is not None:
            gates["ratio_kernel"] = {"ok": True, "bootstrap": True}
        return 0
    from test_bench_opt import MIN_OPT_KERNEL_SPEEDUP

    latest = records[-1]["speedup"]
    if gates is not None:
        gates["ratio_kernel"] = {
            "ok": latest >= MIN_OPT_KERNEL_SPEEDUP,
            "speedup": latest,
            "floor": MIN_OPT_KERNEL_SPEEDUP,
            "margin": round(latest - MIN_OPT_KERNEL_SPEEDUP, 3),
            "record": records[-1],
        }
    print(
        f"latest recorded opt-kernel speedup: {latest:.1f}x vs per-sequence "
        f"python (floor {MIN_OPT_KERNEL_SPEEDUP:.0f}x)"
    )
    if latest < MIN_OPT_KERNEL_SPEEDUP:
        print(
            f"FAIL: opt-kernel speedup {latest:.1f}x below the "
            f"{MIN_OPT_KERNEL_SPEEDUP:.0f}x floor"
        )
        return 1
    return 0


def measure_and_record() -> dict:
    """Measure once, append the record to the trajectory, return it."""
    from bench_utils import record_bench_trajectory
    from test_bench_engine import (
        BENCH_N,
        BENCH_TRIALS,
        VECTOR_FACTORIES,
        measure_vectorized_engine,
    )

    reference_seconds, vectorized_seconds = measure_vectorized_engine()
    speedup = reference_seconds / vectorized_seconds
    record = {
        "engine": "vectorized",
        "baseline": "reference",
        "adversary": "uniform",
        "algorithms": sorted(VECTOR_FACTORIES),
        "n": BENCH_N,
        "trials": BENCH_TRIALS,
        "seconds": round(vectorized_seconds, 6),
        "baseline_seconds": round(reference_seconds, 6),
        "speedup": round(speedup, 3),
    }
    recorded = record_bench_trajectory("engine", record) is not None
    print(
        f"measured (n={BENCH_N}, trials={BENCH_TRIALS}): reference "
        f"{reference_seconds:.3f}s, vectorized "
        f"{vectorized_seconds:.3f}s -> {speedup:.1f}x vs reference "
        f"({'recorded' if recorded else 'not recorded: REPRO_BENCH_RECORD unset'})"
    )
    return record


def check(measured: dict, prior: list, gates: dict | None = None) -> int:
    """Apply the two-tier regression rule; return the process exit code."""
    from bench_utils import machine_fingerprint

    speedup = measured["speedup"]
    host = measured.get("host", machine_fingerprint())
    gate: dict = {"speedup": speedup, "host": host, "record": measured}
    failed = False
    same_host = [r["speedup"] for r in prior if r.get("host") == host]
    if same_host:
        floor = (1.0 - SAME_HOST_TOLERANCE) * max(same_host)
        gate["same_host"] = {
            "best": max(same_host),
            "floor": round(floor, 3),
            "margin": round(speedup - floor, 3),
            "ok": speedup >= floor,
        }
        print(
            f"same-host best {max(same_host):.1f}x, floor {floor:.1f}x "
            f"({SAME_HOST_TOLERANCE:.0%} tolerance)"
        )
        if speedup < floor:
            print(
                f"FAIL: {speedup:.1f}x dropped more than "
                f"{SAME_HOST_TOLERANCE:.0%} below the same-host best"
            )
            failed = True
    from test_bench_engine import MIN_VECTORIZED_VS_REFERENCE

    any_host = [r["speedup"] for r in prior]
    # The cross-host floor never exceeds the benchmark suite's own CI-safe
    # hard floor: a machine the suite considers healthy must pass the gate.
    floor = min(
        (1.0 - CROSS_HOST_TOLERANCE) * max(any_host),
        MIN_VECTORIZED_VS_REFERENCE,
    )
    gate["cross_host"] = {
        "best": max(any_host),
        "floor": round(floor, 3),
        "margin": round(speedup - floor, 3),
        "ok": speedup >= floor,
    }
    print(
        f"all-host best {max(any_host):.1f}x, catastrophic floor "
        f"{floor:.1f}x ({CROSS_HOST_TOLERANCE:.0%} tolerance, capped at the "
        f"suite floor {MIN_VECTORIZED_VS_REFERENCE:.0f}x)"
    )
    if speedup < floor:
        print(
            f"FAIL: {speedup:.1f}x dropped more than "
            f"{CROSS_HOST_TOLERANCE:.0%} below the best recorded anywhere"
        )
        failed = True
    gate["ok"] = not failed
    if gates is not None:
        gates["vectorized"] = gate
    if failed:
        return 1
    print("PASS")
    return 0


def _run(argv: list, gates: dict) -> int:
    """The gate body; text goes to stdout, structured results into ``gates``."""
    try:
        records = vectorized_records()
        opt_records = opt_kernel_records()
        knowledge_records = knowledge_kernel_records()
    except TrajectoryError as error:
        print(f"perf gate error: {error}")
        gates["trajectory"] = {"ok": False, "error": str(error)}
        return 2
    if not records and "--require-record" in argv:
        # CI mode: the benchmark step that runs immediately before the gate
        # must have appended a vectorized record; its absence means that
        # step silently failed to record, and measuring here would hide it.
        print(
            "perf gate error: BENCH_engine.json holds no vectorized-vs-"
            "reference record for the gated config; the benchmark step "
            "that precedes the gate should have appended one (run "
            "REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest benchmarks "
            "-x -q -s, or pass --measure to let the gate measure and record "
            "itself)"
        )
        gates["vectorized"] = {"ok": False, "error": "missing record"}
        return 2
    opt_exit = check_opt_kernel(opt_records, "--require-record" in argv, gates)
    if opt_exit:
        return opt_exit
    knowledge_exit = check_knowledge_kernel(
        knowledge_records, "--require-record" in argv, gates
    )
    if knowledge_exit:
        return knowledge_exit
    if "--measure" in argv or not records:
        measured = measure_and_record()
        prior = records
    else:
        measured = records[-1]
        prior = records[:-1]
        print(
            f"latest recorded vectorized speedup: "
            f"{measured['speedup']:.1f}x vs reference"
        )
    if not prior:
        print("no prior vectorized record to compare against; gate passes (bootstrap)")
        gates["vectorized"] = {
            "ok": True, "bootstrap": True, "speedup": measured["speedup"],
        }
        return 0
    return check(measured, prior, gates)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    gates: dict = {}
    if "--json" not in argv:
        return _run(argv, gates)
    # --json: machine-readable mode.  The human-readable lines are
    # swallowed (they narrate the same decisions the structure reports)
    # and one JSON object with per-gate record/floor/margin goes to
    # stdout, so CI and `repro bench trajectory` consumers never have to
    # scrape text.
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = _run(argv, gates)
    print(
        json.dumps(
            {"ok": code == 0, "exit_code": code, "gates": gates},
            indent=2,
            sort_keys=True,
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
