"""The benchmark's workloads: campaign grids shaped like the paper's results.

Each workload is the keyword set of a :class:`repro.campaign.CampaignSpec`
minus the name and the master seed, which the benchmark fills in from
``--seed``.  The algorithm/adversary set and the ``n`` values define a
workload; the trial count only sets how long one campaign runs.  This
module imports nothing from ``repro``, so ``run.py`` can read it without
paying for the program's imports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

DEFAULT_SEED = 0
"""The seed whose cell shards are pinned by ``golden.json``."""

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_SECTION4 = ("waiting", "gathering", "waiting_greedy")

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # The paper's headline measurement: competitive ratio against the
    # offline optimum, which dominates the run.
    "paper_ratio": {
        "algorithms": _SECTION4,
        "adversaries": ("uniform",),
        "ns": (100, 200),
        "trials": 16,
        "ratio": True,
    },
    # The same algorithms without ratio capture: the lockstep engine
    # (draws, kernel decisions, candidate walk) is all the work.
    "paper_engine": {
        "algorithms": _SECTION4,
        "adversaries": ("uniform",),
        "ns": (200, 400),
        "trials": 48,
        "ratio": False,
    },
    # Knowledge-based algorithms: trial preparation (committed prefixes
    # and plan building) dominates.
    "knowledge": {
        "algorithms": ("full_knowledge", "future_broadcast", "spanning_tree"),
        "adversaries": ("uniform",),
        "ns": (200, 300),
        "trials": 8,
        "ratio": False,
    },
    # Non-uniform adversaries: pair-table construction and the per-draw
    # non-uniform stream.
    "skewed": {
        "algorithms": _SECTION4,
        "adversaries": ("zipf", "hub"),
        "ns": (400,),
        "trials": 8,
        "ratio": False,
        "adversary_params": {"zipf": {"exponent": 1.0}},
    },
}


def spec_fields(workload: str, seed: int) -> Dict[str, Any]:
    """The full :class:`~repro.campaign.CampaignSpec` keywords of a run."""
    return {
        "name": f"perfbench-{workload}",
        "master_seed": seed,
        "engine": "vectorized",
        **WORKLOADS[workload],
    }


def load_golden(workload: str) -> Dict[str, str]:
    """Cell label -> shard SHA-256 of ``workload`` at :data:`DEFAULT_SEED`.

    Empty when no golden digests were recorded, which fails every cell.
    """
    if not GOLDEN_PATH.exists():
        return {}
    golden: Dict[str, Dict[str, str]] = json.loads(GOLDEN_PATH.read_text())
    return golden.get(workload, {})
