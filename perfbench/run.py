"""Run one benchmark workload for a while and print its metrics as JSON.

    python3 perfbench/run.py --workload paper_ratio --seed 0 --seconds 30 --trace 0

Each measured campaign runs in a process of its own (``worker.py``), one
after another, until ``--seconds`` are used; every metric is the median
over those runs.  ``--trace 0`` reports the end-to-end metrics of
untraced runs, each on the next master seed derived from ``--seed``.
``--trace 1`` alternates untraced and traced runs at ``--seed`` and
reports the per-layer metrics of the traced ones, the trace's coverage of
wall time, and its overhead against the untraced runs.

A shared host's speed drifts by a quarter and more from minute to
minute (measured on a 2-vCPU x86_64 VM).  So a fixed probe job, which
runs no code of the program, is timed right before and after every
round, and the end-to-end times are reported in reference-host seconds:
measured seconds × ``REFERENCE_PROBE_S`` / probe seconds.  A change to
the program moves them exactly as it moves the measured times; a slower
minute of the host does not.  The measured times of every round are
printed with the provenance.

Stores and traces go to a temporary directory under ``.perfbench_tmp/``
in the checkout, which is removed afterwards; the benchmark fails if any
other file of the checkout changed.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records provenance and the per-run figures.  At the default seed every
cell shard must match ``golden.json``; ``--update-golden`` rewrites that
file from one run of every workload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
WORKER_TIMEOUT_S = 120
MIN_ROUNDS = 5
MIN_TRACED_ROUNDS = 2
ROUND_STRIDE = 1000
PROBES_PER_SIDE = 3
#: Median probe time on the reference host (x86_64, 2 vCPUs) when quiet.
REFERENCE_PROBE_S = 0.05
#: Per-round figures printed with the provenance; times are unscaled.
ROUND_FIELDS = ("seed", "wall_s", "slowest_cell_s", "peak_rss_mb", "setup_s", "probe_s")

END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "slowest_cell_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_frac": "frac",
}

PER_LAYER = {
    "prepare.derive.busy_s": "s",
    "prepare.adversary.busy_s": "s",
    "prepare.adversary.calls": "count",
    "prepare.knowledge.busy_s": "s",
    "draws.busy_s": "s",
    "draws.interactions": "count",
    "draws.ns_per_interaction": "ns",
    "kernels.prepare.busy_s": "s",
    "kernels.decide.busy_s": "s",
    "kernels.decide.interactions": "count",
    "engine.lockstep.busy_s": "s",
    "engine.walk.busy_s": "s",
    "engine.candidates_walked": "count",
    "engine.useful_frac": "frac",
    "ratio.opt.busy_s": "s",
    "ratio.opt.swept_interactions": "count",
    "ratio.opt.needed_frac": "frac",
    "metrics.assemble.busy_s": "s",
    "store.write.busy_s": "s",
    "store.write.bytes": "B",
    "store.verify.busy_s": "s",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}

#: Work counts that must repeat exactly across runs at one seed.
EXACT_COUNTS = (
    "draws.interactions",
    "kernels.decide.interactions",
    "engine.candidates_walked",
    "ratio.opt.swept_interactions",
)


def run_worker(workload: str, seed: int, scratch: Path, traced: bool = False) -> Dict[str, Any]:
    """One campaign run in a fresh process; its JSON line as a dict."""
    run_dir = Path(tempfile.mkdtemp(dir=scratch))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--store", str(run_dir / "store"),
    ]
    if traced:
        command += ["--trace-out", str(run_dir / "trace.json")]
    command += ["--started", repr(time.monotonic())]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    shutil.rmtree(run_dir)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def probe_seconds() -> float:
    """Time of a fixed job that runs no code of the program.

    Interpreter loops, small-object allocation and numpy calls, roughly
    the mix a campaign round runs, so the host's momentary speed shows in
    it the way it shows in a round.
    """
    data = np.random.default_rng(0).integers(0, 400, 100_000)
    started = time.monotonic()
    values = data.tolist()
    total = 0
    for value in values:
        total += value
    pairs = {value: (value, value + 1) for value in values}
    np.cumsum(np.sort(data))
    np.count_nonzero(data[:, None] == data[:400])
    del pairs
    return time.monotonic() - started


def probed_worker(workload: str, seed: int, scratch: Path, traced: bool = False) -> Dict[str, Any]:
    """:func:`run_worker`, with the host's speed probed before and after.

    ``host_scale`` converts the round's times to reference-host seconds:
    :data:`REFERENCE_PROBE_S` over the median probe time around it.
    """
    probes = [probe_seconds() for _ in range(PROBES_PER_SIDE)]
    run = run_worker(workload, seed, scratch, traced)
    probes += [probe_seconds() for _ in range(PROBES_PER_SIDE)]
    run["probe_s"] = statistics.median(probes)
    run["host_scale"] = REFERENCE_PROBE_S / run["probe_s"]
    return run


def scaled(run: Dict[str, Any], key: str) -> float:
    """A time of one round in reference-host seconds."""
    return run[key] * run["host_scale"]


def round_seed(seed: int, round_index: int) -> int:
    """The campaign master seed of one untraced round of a run."""
    return seed * ROUND_STRIDE + round_index


def measure(
    workload: str, seed: int, seconds: float, traced: bool, scratch: Path
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Untraced and traced runs, repeated while they fit in ``seconds``.

    Without tracing, round ``r`` runs the campaign at master seed
    :func:`round_seed` ``(seed, r)``, so the medians pool several inputs
    and one slow straggler trial cannot set a run's figures.  With
    tracing, untraced and traced runs alternate on master seed ``seed``
    itself, so both kinds do the same work and the traced work counts
    must repeat exactly.
    """
    plain: List[Dict[str, Any]] = []
    traces: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        rounds = len(plain)
        if traced:
            plain.append(probed_worker(workload, seed, scratch))
            traces.append(probed_worker(workload, seed, scratch, traced=True))
        else:
            plain.append(probed_worker(workload, round_seed(seed, rounds), scratch))
        rounds += 1
        elapsed = time.monotonic() - started
        enough = rounds >= (MIN_TRACED_ROUNDS if traced else MIN_ROUNDS)
        if enough and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traces


def tree_state() -> Dict[str, Tuple[int, int]]:
    """Size and modification time of every file of the checkout."""
    state = {}
    for path in ROOT.rglob("*"):
        relative = path.relative_to(ROOT)
        skipped = {".git", "__pycache__", SCRATCH.name} & set(relative.parts)
        if not skipped and path.is_file():
            stat = path.stat()
            state[str(relative)] = (stat.st_size, stat.st_mtime_ns)
    return state


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def end_to_end(runs: List[Dict[str, Any]], attempted: int, failed: int) -> Dict[str, float]:
    def median_scaled(key: str) -> float:
        return statistics.median(scaled(run, key) for run in runs)

    return {
        "wall_s": median_scaled("wall_s"),
        "trials_per_s": statistics.median(
            run["trials"] / scaled(run, "wall_s") for run in runs
        ),
        "slowest_cell_s": median_scaled("slowest_cell_s"),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "setup_s": median_scaled("setup_s"),
        "passed_frac": 1.0 - failed / attempted,
    }


def per_layer(plain: List[Dict[str, Any]], traces: List[Dict[str, Any]]) -> Dict[str, float]:
    values = {
        name: statistics.median(run["layers"][name] for run in traces)
        for name in PER_LAYER if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        statistics.median(scaled(run, "wall_s") for run in traces)
        / statistics.median(scaled(run, "wall_s") for run in plain) - 1.0
    )
    return values


def problems_of(plain: List[Dict[str, Any]], traces: List[Dict[str, Any]]) -> List[str]:
    """Checks across runs: determinism, exact counts, valid traces."""
    runs = plain + traces
    problems = [
        f"run {index}: {label}: {'; '.join(issues)}"
        for index, run in enumerate(runs)
        for label, issues in sorted(run["failures"].items())
    ]
    problems += [f"run {i}: {run['error']}" for i, run in enumerate(runs) if run["error"]]
    shards: Dict[int, set] = defaultdict(set)
    for run in runs:
        shards[run["seed"]].add(json.dumps(run["digests"], sort_keys=True))
    if any(len(variants) > 1 for variants in shards.values()):
        problems.append("cell shards differ between runs at one seed")
    for name in EXACT_COUNTS:
        if len({run["layers"][name] for run in traces}) > 1:
            problems.append(f"{name} differs between traced runs at one seed")
    problems += [
        f"traced run {i}: {problem}"
        for i, run in enumerate(traces) for problem in run["trace_problems"]
    ]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json at the default seed, then exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.update_golden:
        parser.error("--workload is required")

    before = tree_state()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.update_golden:
            golden = {
                name: run_worker(name, DEFAULT_SEED, scratch)["digests"]
                for name in WORKLOADS
            }
            GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
            return 0
        plain, traces = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    problems = problems_of(plain, traces)
    if tree_state() != before:
        problems.append("the run changed files of the checkout")
    attempted = sum(run["cells"] for run in plain + traces)
    failed = sum(len(run["failures"]) for run in plain + traces)
    if args.trace:
        metrics, units = per_layer(plain, traces), PER_LAYER
    else:
        metrics, units = end_to_end(plain, attempted, failed), END_TO_END
    print(json.dumps({
        "provenance": {
            "git_rev": git_revision(),
            "arch": platform.machine(),
            "cpus": os.cpu_count(),
            "numpy": plain[0]["numpy"],
            "python": platform.python_version(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "problems": problems,
        "runs": [
            {key: run[key] for key in ROUND_FIELDS}
            for run in plain
        ],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
