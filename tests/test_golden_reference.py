"""The reference engine reproduces the benchmark's golden cell shards.

``perfbench/golden.json`` pins the SHA-256 digest of every cell shard of
each benchmark workload at seed 0, recorded on the vectorized engine.  A
shard digest covers the cell's trial records only, not the engine that
ran them, so the reference engine (the semantics oracle) must reproduce
every digest.  That checks reference ≡ vectorized at benchmark scale,
where the engine differential tests stop at n ≤ 20: ``paper_ratio`` runs
n = 100-200 with ratio capture, ``paper_engine`` n = 200-400 on the
default block windows over hundreds of thousands of interactions per
trial, ``knowledge`` the knowledge-based algorithms and ``skewed`` the
zipf and hub adversaries.  Cells are never shrunk, since a digest covers
a whole cell; ``paper_engine`` takes about three minutes.  The test
reads the workload spec and the golden digests and writes neither file.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.slow
@pytest.mark.parametrize(
    "workload", ("paper_ratio", "paper_engine", "knowledge", "skewed")
)
def test_reference_engine_reproduces_the_golden_digests(workload, tmp_path):
    fields = workloads.spec_fields(workload, workloads.DEFAULT_SEED)
    spec = CampaignSpec(**{**fields, "engine": "reference"})
    store = tmp_path / "store"
    run_campaign(spec, store)
    cells = CampaignStore(store).read_manifest()["cells"]
    digests = {cell.label(): cells[cell.key]["digest"] for cell in spec.cells()}
    golden = workloads.load_golden(workload)
    assert golden and digests == golden
