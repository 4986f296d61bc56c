"""Campaign round-trip experiment (E24).

The campaign layer's core promise is that orchestration is *invisible in
the results*: a campaign store is a pure function of the spec hash, no
matter how the run was scheduled, interrupted or resumed.  E24 checks that
promise end to end on a small grid:

* **fresh leg** — the spec runs straight through into one store;
* **resumed leg** — the same spec runs into a second store but is
  interrupted after one cell (``max_cells=1``), then resumed to
  completion under a *different* engine;
* the two stores must hold **byte-identical shards cell for cell**, and
  the aggregated reports (``repro.campaign.report``) must render
  identically — timestamps and engine bookkeeping live only in the
  manifest fields the comparison deliberately ignores.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Dict, Sequence

from ..campaign.report import build_campaign_report
from ..campaign.runner import run_campaign
from ..campaign.spec import CampaignSpec
from ..campaign.store import CampaignStore
from ..sim.results import ExperimentReport, ResultTable


def run_campaign_roundtrip(
    ns: Sequence[int] = (8, 10),
    trials: int = 3,
    engine: str = "reference",
    resume_engine: str = "vectorized",
    master_seed: int = 0,
) -> ExperimentReport:
    """E24 — fresh-run ≡ interrupted-and-resumed-run, cell for cell."""
    spec = CampaignSpec(
        name="e24-roundtrip",
        algorithms=("gathering", "waiting"),
        adversaries=("uniform",),
        ns=tuple(int(n) for n in ns),
        trials=trials,
        master_seed=master_seed,
        engine=engine,
    )
    workdir = Path(tempfile.mkdtemp(prefix="repro-e24-"))
    table = ResultTable(
        title="Campaign round trip: fresh vs interrupted-and-resumed store",
        columns=["cell", "n", "records", "bytes", "shards_equal"],
    )
    try:
        fresh_dir = workdir / "fresh"
        resumed_dir = workdir / "resumed"
        fresh = run_campaign(spec, fresh_dir)
        interrupted = run_campaign(spec, resumed_dir, max_cells=1)
        resumed = run_campaign(spec, resumed_dir, engine=resume_engine)

        interrupt_respected = (
            interrupted.executed == 1
            and interrupted.remaining == len(spec.cells()) - 1
        )
        resume_skipped_checkpoint = resumed.skipped == 1
        all_complete = fresh.complete and resumed.complete

        fresh_store = CampaignStore(fresh_dir)
        resumed_store = CampaignStore(resumed_dir)
        all_equal = True
        for cell in spec.cells():
            fresh_bytes = fresh_store.shard_path(cell.key).read_bytes()
            resumed_bytes = resumed_store.shard_path(cell.key).read_bytes()
            equal = fresh_bytes == resumed_bytes
            all_equal = all_equal and equal
            table.add_row(
                cell=cell.label(),
                n=cell.n,
                records=len(fresh_store.load_cell(cell.key)),
                bytes=len(fresh_bytes),
                shards_equal=equal,
            )

        fresh_report = build_campaign_report(fresh_dir).to_markdown()
        resumed_report = build_campaign_report(resumed_dir).to_markdown()
        reports_equal = fresh_report == resumed_report
        table.add_note(
            f"fresh leg engine={engine!r}, resume leg interrupted after 1 "
            f"cell and finished under engine={resume_engine!r}; reports "
            f"render identically: {reports_equal}"
        )
        verdict = (
            interrupt_respected
            and resume_skipped_checkpoint
            and all_complete
            and all_equal
            and reports_equal
        )
        details: Dict[str, object] = {
            "cells": len(spec.cells()),
            "interrupt_respected": interrupt_respected,
            "resume_skipped_checkpoint": resume_skipped_checkpoint,
            "shards_byte_identical": all_equal,
            "reports_equal": reports_equal,
            "spec_hash": spec.spec_hash()[:16],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ExperimentReport(
        experiment_id="E24",
        claim="Campaign orchestration is result-invisible: an interrupted "
        "and resumed campaign store is byte-identical to a fresh run",
        tables=[table],
        verdict=verdict,
        details=details,
    )
