"""One campaign run of a benchmark workload, in a process of its own.

``run.py`` starts one of these per measured run, so that the peak
resident memory (a per-process high-water mark) belongs to this run
alone.  The worker builds the workload's campaign spec, initialises a
fresh store, runs the campaign through ``repro.campaign.run_campaign``
(vectorized engine, one worker), checks every cell, and prints one JSON
line with its measurements::

    python3 perfbench/worker.py --workload skewed --seed 0 \\
        --store <empty dir> --started <time.monotonic() of the parent> \\
        [--trace-out trace.json]

With ``--trace-out`` the run is traced (see ``layers.py``), the Chrome
trace is written there and validated, and the line carries the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import DEFAULT_SEED, WORKLOADS, load_golden, spec_fields

SRC = Path(__file__).resolve().parent.parent / "src"


def record_problems(records: List[Dict[str, Any]], cell: Any, spec: Any) -> List[str]:
    """Invariant violations in one cell's trial records."""
    problems = []
    if [r["trial"] for r in records] != list(range(spec.trials)):
        problems.append(f"{len(records)} records for {spec.trials} trials")
    n = cell.n
    for r in records:
        where = f"trial {r['trial']}"
        if (r["n"], r["algorithm"]) != (n, cell.algorithm):
            problems.append(f"{where}: record of another cell")
        if r["terminated"] and not (
            r["duration"] <= r["horizon"]
            and r["transmissions"] == n - 1
            and r["sink_coverage"] == n
        ):
            problems.append(f"{where}: terminated without a full convergecast")
        if spec.ratio:
            ratio = r.get("competitive_ratio")
            if "opt_cost" not in r:
                problems.append(f"{where}: no offline optimum captured")
            elif ratio is not None and not ratio >= 1.0:
                problems.append(f"{where}: competitive ratio {ratio} < 1")
    return problems


def check_cells(store: Any, spec: Any, golden: Optional[Dict[str, str]]) -> Dict[str, List[str]]:
    """Cell label -> problems, for every cell that failed a check."""
    manifest = store.read_manifest()
    failures: Dict[str, List[str]] = {}
    for status in store.verify(spec):
        cell = status.cell
        if status.state != "complete":
            failures[cell.label()] = [f"cell is {status.state} {status.detail}"]
            continue
        problems = record_problems(store.load_cell(cell.key), cell, spec)
        digest = manifest["cells"][cell.key]["digest"]
        if golden is not None and digest != golden.get(cell.label()):
            problems.append("shard digest differs from the golden digest")
        if problems:
            failures[cell.label()] = problems
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    from repro.campaign import CampaignSpec, CampaignStore, run_campaign
    from repro.core.vector_execution import EngineFallbackWarning

    spec = CampaignSpec(**spec_fields(args.workload, args.seed))
    store = CampaignStore(args.store)
    store.initialize(spec)
    # Everything up to here is set-up: interpreter start, imports, spec
    # validation and store initialisation.
    setup_s = time.monotonic() - args.started

    trace = None
    if args.trace_out is not None:
        from layers import LayerTrace

        trace = LayerTrace()
    error = None
    with warnings.catch_warnings():
        # A trial leaving the vectorized engine makes its cell raise; the
        # cells that did not complete are then counted as failed.
        warnings.simplefilter("error", EngineFallbackWarning)
        with trace.recording() if trace is not None else nullcontext():
            started = time.monotonic()
            try:
                run_campaign(spec, args.store, workers=1)
            except Exception as exc:  # a raising cell is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall_s = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED else None
    failures = check_cells(store, spec, golden)
    manifest = store.read_manifest()
    cells = list(manifest["cells"].values())
    result: Dict[str, Any] = {
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "slowest_cell_s": max((c["elapsed_seconds"] for c in cells), default=wall_s),
        "peak_rss_mb": peak_rss_mb,
        "cells": len(spec.cells()),
        "trials": sum(c["records"] for c in cells),
        "failures": failures,
        "error": error,
        "digests": {
            f"{c['adversary']}/{c['algorithm']}/n={c['n']}": c["digest"]
            for c in cells
        },
        "numpy": numpy.__version__,
    }
    if trace is not None:
        from repro.obs import validate_chrome_trace, write_chrome_trace

        transmissions = sum(
            record["transmissions"]
            for cell in spec.cells() if cell.key in manifest["cells"]
            for record in store.load_cell(cell.key)
        )
        result["layers"] = trace.metrics(wall_s, transmissions)
        write_chrome_trace(trace.collector, args.trace_out)
        result["trace_problems"] = validate_chrome_trace(
            json.loads(args.trace_out.read_text())
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
