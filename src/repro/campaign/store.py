"""Content-addressed on-disk store for campaign results.

Layout (one directory per campaign)::

    <store>/
        manifest.json           # spec hash, spec echo, repro version,
                                # one entry per completed cell
        cells/<cell_key>.jsonl  # one JSON record per trial, shard per cell

Invariants:

* **Shards are deterministic byte streams.**  A cell shard contains only
  trial records (sorted JSON keys, no timestamps), so two runs of the same
  spec — fresh, resumed, different engine, different worker count —
  produce byte-identical shards.  All wall-clock bookkeeping (timestamps,
  elapsed seconds, engine used) lives in the manifest, in fields the
  equality checks deliberately ignore.
* **Every manifest entry is verifiable.**  The entry records the shard's
  SHA-256 digest and record count; :meth:`CampaignStore.verify_cell`
  recomputes both, so resume never trusts a cell the disk cannot prove.
  A failed verification marks the cell corrupt — the runner re-executes
  it (self-healing) and ``campaign status`` reports it.
* **A store binds to one spec hash.**  Opening a store with a spec whose
  :meth:`~repro.campaign.spec.CampaignSpec.spec_hash` differs from the
  manifest's raises :class:`CampaignStoreMismatch`; a campaign directory
  can never silently mix results from two different grids.
* **Writes are atomic** (temp file + ``os.replace``), so an interrupt
  mid-checkpoint leaves either the previous state or the new one, never a
  torn manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..sim.metrics import TrialMetrics
from .spec import CampaignCell, CampaignSpec

__all__ = [
    "CampaignStore",
    "CampaignStoreError",
    "CampaignStoreMismatch",
    "CellStatus",
    "MANIFEST_NAME",
    "metrics_to_record",
    "record_to_metrics",
]

MANIFEST_NAME = "manifest.json"
_CELL_DIR = "cells"
_FORMAT = 1


class CampaignStoreError(RuntimeError):
    """The store is unreadable or structurally invalid."""


class CampaignStoreMismatch(CampaignStoreError):
    """The store belongs to a different campaign spec (hash mismatch)."""


@dataclass(frozen=True)
class CellStatus:
    """Verification status of one cell: ``complete``, ``corrupt`` or ``pending``."""

    cell: CampaignCell
    state: str
    detail: str = ""


def metrics_to_record(metrics: TrialMetrics, trial: int, adversary: str) -> Dict[str, Any]:
    """One trial's JSON-serialisable store record (deterministic content).

    ``duration`` is ``None`` for non-terminated trials (JSON has no
    ``inf``); :func:`record_to_metrics` restores the ``math.inf``.  Trials
    run with offline-baseline capture (``ratio = true`` campaigns)
    additionally carry ``opt_cost`` (``None`` standing for the
    :data:`~repro.ratio.semantics.UNREACHABLE` sentinel) and
    ``competitive_ratio`` (``None`` when non-finite); trials without
    capture omit both keys, so pre-ratio shards stay byte-identical.
    """
    record = {
        "adversary": adversary,
        "algorithm": metrics.algorithm,
        "duration": metrics.duration if metrics.terminated else None,
        "horizon": metrics.horizon,
        "n": metrics.n,
        "seed": metrics.seed,
        "sink_coverage": metrics.sink_coverage,
        "terminated": metrics.terminated,
        "transmissions": metrics.transmissions,
        "trial": trial,
    }
    if metrics.opt_cost is not None:
        record["opt_cost"] = (
            metrics.opt_cost if math.isfinite(metrics.opt_cost) else None
        )
        ratio = metrics.competitive_ratio
        record["competitive_ratio"] = (
            ratio if ratio is not None and math.isfinite(ratio) else None
        )
    return record


def record_to_metrics(record: Dict[str, Any]) -> TrialMetrics:
    """Rebuild :class:`~repro.sim.metrics.TrialMetrics` from a store record.

    The competitive ratio is *recomputed* from ``(duration, opt_cost)``
    through :func:`repro.ratio.semantics.competitive_ratio` rather than
    trusted from the record, so a round trip can never drift from the
    single definition (``inf`` ratios survive the JSON ``None``).
    """
    from ..ratio.semantics import competitive_ratio as _competitive_ratio

    duration = record["duration"]
    restored = math.inf if duration is None else float(duration)
    opt_cost: "float | None" = None
    ratio: "float | None" = None
    if "opt_cost" in record:
        stored = record["opt_cost"]
        opt_cost = math.inf if stored is None else float(stored)
        value = _competitive_ratio(restored, opt_cost)
        ratio = None if math.isnan(value) else value
    return TrialMetrics(
        n=record["n"],
        seed=record["seed"],
        algorithm=record["algorithm"],
        terminated=record["terminated"],
        duration=restored,
        transmissions=record["transmissions"],
        horizon=record["horizon"],
        sink_coverage=record["sink_coverage"],
        opt_cost=opt_cost,
        competitive_ratio=ratio,
    )


def _shard_bytes(records: Sequence[Dict[str, Any]]) -> bytes:
    lines = [json.dumps(record, sort_keys=True) for record in records]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


class CampaignStore:
    """Checkpointed result store of one campaign (see module docstring)."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.cell_dir = self.directory / _CELL_DIR

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        """Whether this directory already holds a campaign manifest."""
        return self.manifest_path.exists()

    def initialize(self, spec: CampaignSpec) -> Dict[str, Any]:
        """Create the store for ``spec``, or open it if it already matches.

        Returns the manifest.

        Raises:
            CampaignStoreMismatch: if the directory holds a manifest for a
                different spec hash.
            CampaignStoreError: if an existing manifest is unreadable.
        """
        if self.exists():
            manifest = self.read_manifest()
            stored = manifest.get("spec_hash")
            if stored != spec.spec_hash():
                raise CampaignStoreMismatch(
                    f"store {self.directory} belongs to campaign "
                    f"{manifest.get('campaign')!r} (spec hash {stored}), "
                    f"which differs from the requested spec "
                    f"(hash {spec.spec_hash()}); point the run at a fresh "
                    "directory or restore the original spec"
                )
            return manifest
        # Imported lazily: the package __init__ imports this module, so the
        # version attribute may not exist yet at module-import time.
        from .. import __version__ as repro_version

        self.directory.mkdir(parents=True, exist_ok=True)
        self.cell_dir.mkdir(exist_ok=True)
        manifest = {
            "format": _FORMAT,
            "campaign": spec.name,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "repro_version": repro_version,
            "created_at": time.time(),
            "cells": {},
        }
        self._write_manifest(manifest)
        return manifest

    def read_manifest(self) -> Dict[str, Any]:
        """Load and structurally check the manifest.

        Raises:
            CampaignStoreError: if the manifest is missing or unparseable.
        """
        if not self.manifest_path.exists():
            raise CampaignStoreError(
                f"no campaign manifest at {self.manifest_path} "
                "(is this a campaign store directory?)"
            )
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise CampaignStoreError(
                f"unreadable campaign manifest {self.manifest_path}: {error}"
            ) from None
        if not isinstance(manifest, dict) or "cells" not in manifest:
            raise CampaignStoreError(
                f"campaign manifest {self.manifest_path} has no 'cells' table"
            )
        if not isinstance(manifest["cells"], dict):
            raise CampaignStoreError(
                f"campaign manifest {self.manifest_path} is corrupt: 'cells' "
                f"must be a table, found {type(manifest['cells']).__name__}"
            )
        if "spec" in manifest and not isinstance(manifest["spec"], dict):
            raise CampaignStoreError(
                f"campaign manifest {self.manifest_path} is corrupt: 'spec' "
                f"must be a table, found {type(manifest['spec']).__name__}"
            )
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        _atomic_write(self.manifest_path, payload)

    # ------------------------------------------------------------------ #
    # Cells
    # ------------------------------------------------------------------ #
    def shard_path(self, cell_key: str) -> Path:
        return self.cell_dir / f"{cell_key}.jsonl"

    def write_cell(
        self,
        cell: CampaignCell,
        metrics: Sequence[TrialMetrics],
        engine: str,
        elapsed_seconds: float,
        fallback_count: int = 0,
    ) -> None:
        """Checkpoint one completed cell: shard first, then manifest entry.

        ``fallback_count`` records how many of the cell's trials the
        vectorized engine routed to the reference fallback — engine bookkeeping,
        so it lives in the manifest entry (like ``engine`` and the wall
        clock), never in the shard bytes: shards stay deterministic
        functions of the spec.
        """
        records = [
            metrics_to_record(trial_metrics, trial, cell.adversary)
            for trial, trial_metrics in enumerate(metrics)
        ]
        payload = _shard_bytes(records)
        self.cell_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.shard_path(cell.key), payload)
        manifest = self.read_manifest()
        manifest["cells"][cell.key] = {
            "adversary": cell.adversary,
            "algorithm": cell.algorithm,
            "n": cell.n,
            "records": len(records),
            "digest": hashlib.sha256(payload).hexdigest(),
            "shard": f"{_CELL_DIR}/{cell.key}.jsonl",
            "engine": engine,
            "fallbacks": int(fallback_count),
            "elapsed_seconds": round(elapsed_seconds, 6),
            "completed_at": time.time(),
        }
        self._write_manifest(manifest)

    def verify_cell(
        self, cell: CampaignCell, manifest: Optional[Dict[str, Any]] = None
    ) -> CellStatus:
        """Prove one cell's checkpoint against the disk.

        ``complete`` requires a manifest entry whose recorded digest and
        record count match the shard bytes; a present-but-unprovable cell
        is ``corrupt`` (tampered shard, truncated write, edited manifest),
        an absent one is ``pending``.
        """
        manifest = manifest if manifest is not None else self.read_manifest()
        entry = manifest["cells"].get(cell.key)
        if entry is None:
            return CellStatus(cell, "pending")
        shard = self.shard_path(cell.key)
        if not shard.exists():
            return CellStatus(cell, "corrupt", "manifest entry without shard file")
        payload = shard.read_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != entry.get("digest"):
            return CellStatus(cell, "corrupt", "shard digest mismatch")
        count = sum(1 for line in payload.splitlines() if line.strip())
        if count != entry.get("records"):
            return CellStatus(cell, "corrupt", "record count mismatch")
        return CellStatus(cell, "complete")

    def verify(self, spec: CampaignSpec) -> List[CellStatus]:
        """Verify every cell of ``spec`` against this store, in cell order."""
        manifest = self.read_manifest()
        return [self.verify_cell(cell, manifest) for cell in spec.cells()]

    def load_cell(self, cell_key: str) -> List[Dict[str, Any]]:
        """The raw trial records of one cell shard (in trial order).

        Raises:
            CampaignStoreError: if the shard is missing or unparseable.
        """
        shard = self.shard_path(cell_key)
        if not shard.exists():
            raise CampaignStoreError(f"missing cell shard {shard}")
        records: List[Dict[str, Any]] = []
        try:
            for line in shard.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise CampaignStoreError(
                f"corrupt cell shard {shard}: {error}"
            ) from None
        return records

    def load_cell_metrics(self, cell_key: str) -> List[TrialMetrics]:
        """One cell's records as :class:`~repro.sim.metrics.TrialMetrics`."""
        return [record_to_metrics(record) for record in self.load_cell(cell_key)]
