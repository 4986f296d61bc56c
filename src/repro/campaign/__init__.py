"""Campaign orchestration: declarative specs, resumable runs, stored results.

This package turns one-shot in-memory sweeps into an orchestrated
reproduction system:

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the declarative
  experiment grid (algorithms × adversary families × ``n`` × trials),
  loadable from TOML/JSON and validated against the live registries;
* :mod:`repro.campaign.runner` — sharded execution over the sweep-cell
  machinery, checkpointing each completed cell and **resuming**
  interrupted campaigns by skipping cells the store can prove;
* :mod:`repro.campaign.store` — the content-addressed on-disk store
  (JSONL shard per cell + verifiable manifest);
* :mod:`repro.campaign.report` — aggregation into the paper's comparison
  tables and figures.

Invariant tying it all together: for a given spec hash, the store contents
are a pure function of the spec — independent of engine, worker count,
interruptions and resume order (``E24`` asserts fresh ≡ resumed cell for
cell).  CLI: ``python -m repro campaign run|status|report``; docs:
``docs/campaigns.md``.
"""

from .report import CampaignReport, build_campaign_report, write_campaign_figures
from .runner import (
    CampaignRunSummary,
    campaign_status,
    default_store_dir,
    run_campaign,
)
from .spec import (
    CampaignCell,
    CampaignSpec,
    CampaignSpecError,
    algorithm_factory_for,
    load_campaign_spec,
    spec_from_dict,
)
from .store import (
    CampaignStore,
    CampaignStoreError,
    CampaignStoreMismatch,
    CellStatus,
)

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "CampaignRunSummary",
    "CampaignSpec",
    "CampaignSpecError",
    "CampaignStore",
    "CampaignStoreError",
    "CampaignStoreMismatch",
    "CellStatus",
    "algorithm_factory_for",
    "build_campaign_report",
    "campaign_status",
    "default_store_dir",
    "load_campaign_spec",
    "run_campaign",
    "spec_from_dict",
    "write_campaign_figures",
]
