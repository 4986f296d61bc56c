"""Sharded, resumable campaign execution.

The runner decomposes a :class:`~repro.campaign.spec.CampaignSpec` into its
sweep cells, runs each cell through the sweep machinery
(:func:`repro.sim.batch.run_sweep_cell`, distributed over worker processes
by :func:`repro.sim.parallel.run_sweep_cells`), and checkpoints every
completed cell to a :class:`~repro.campaign.store.CampaignStore` before
starting the next one.

Resume semantics:

* On start the runner verifies every cell already in the store
  (:meth:`CampaignStore.verify_cell`) and **skips the proven ones** — an
  interrupted campaign continues where it stopped, paying only for the
  cells it lost.
* Corrupt cells (shard/digest mismatch) are re-executed, not trusted —
  the store self-heals.
* Because every trial's seed derives from ``(master_seed, experiment,
  algorithm, n, trial)`` alone, a resumed campaign writes **byte-identical
  shards** to a fresh straight-through run, regardless of the engine or
  worker count used for either leg (``E24`` and
  ``tests/test_campaign_resume.py`` assert exactly this).
* ``max_cells`` caps how many pending cells one invocation executes — the
  hook the kill-and-resume tests use to simulate an interruption
  deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..obs import (
    TelemetryWriter,
    current_collector,
    latest_cell_records,
    read_telemetry,
    telemetry_path_for_store,
)
from ..obs import now as _now
from ..sim.parallel import run_sweep_cells
from .spec import CampaignCell, CampaignSpec, algorithm_factory_for
from .store import CampaignStore

__all__ = [
    "CampaignRunSummary",
    "CampaignWorkerError",
    "campaign_status",
    "default_store_dir",
    "run_campaign",
]


class CampaignWorkerError(RuntimeError):
    """A worker process died mid-campaign (e.g. killed by the OS).

    The message names the first cell that did not finish.  Every cell
    checkpointed before the failure stays in the store, so re-running the
    campaign resumes from there.
    """


@dataclass
class CampaignRunSummary:
    """Outcome of one ``run_campaign`` invocation."""

    campaign: str
    spec_hash: str
    store: str
    engine: str
    total_cells: int
    skipped: int
    executed: int
    repaired: int
    remaining: int
    elapsed_seconds: float
    executed_cells: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every cell of the campaign is checkpointed."""
        return self.remaining == 0

    def to_text(self) -> str:
        state = "complete" if self.complete else f"{self.remaining} cells remaining"
        return (
            f"campaign {self.campaign!r} [{self.spec_hash[:12]}] -> {self.store}\n"
            f"  engine={self.engine} cells={self.total_cells} "
            f"skipped={self.skipped} executed={self.executed} "
            f"(repaired={self.repaired}) in {self.elapsed_seconds:.2f}s — {state}"
        )


def default_store_dir(spec: CampaignSpec, base: "str | Path" = "campaigns") -> Path:
    """The conventional store location for a spec: ``campaigns/<name>``."""
    return Path(base) / spec.name


def _cell_kwargs(spec: CampaignSpec, cell: CampaignCell, engine: str) -> Dict[str, Any]:
    """The :func:`repro.sim.batch.run_sweep_cell` arguments of one cell."""
    return {
        "algorithm_factory": algorithm_factory_for(cell.algorithm),
        "n": cell.n,
        "trials": spec.trials,
        "master_seed": spec.master_seed,
        "experiment": spec.experiment,
        "engine": engine,
        "adversary": cell.adversary,
        "adversary_params": spec.params_for(cell.adversary) or None,
        "capture_opt": spec.ratio,
    }


def run_campaign(
    spec: CampaignSpec,
    store_dir: "str | Path",
    engine: Optional[str] = None,
    workers: int = 1,
    max_cells: Optional[int] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> CampaignRunSummary:
    """Run (or resume) a campaign into ``store_dir``.

    Args:
        spec: the validated campaign spec.
        engine: run-time engine override (default: the spec's engine);
            results are engine-invariant, so resuming under a different
            engine is safe and checkpoint-compatible.
        workers: processes for cell-level fan-out (cells are independent).
        max_cells: execute at most this many pending cells, then stop —
            the deterministic "interrupt" used by the resume tests.
        echo: optional progress sink (e.g. ``print``); called once per cell.

    Raises:
        CampaignStoreMismatch: if ``store_dir`` holds a different campaign.
        CampaignWorkerError: if a worker process dies; the store keeps every
            cell checkpointed before that and stays resumable.
        ValueError: if ``workers < 1`` or ``max_cells < 0``.
    """
    from concurrent.futures import BrokenExecutor

    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be >= 0, got {max_cells}")
    spec = spec.with_engine(engine)
    started = _now()
    store = CampaignStore(store_dir)
    store.initialize(spec)
    collector = current_collector()
    # Telemetry is observe-only: it lands in a sidecar telemetry.jsonl
    # next to the store, never in shards or the manifest, so traced and
    # untraced campaigns produce byte-identical stores.
    telemetry = TelemetryWriter(telemetry_path_for_store(store_dir))

    with collector.span(
        "campaign.run", campaign=spec.name, engine=spec.engine, workers=workers
    ) as run_span:
        statuses = store.verify(spec)
        pending = [s.cell for s in statuses if s.state != "complete"]
        repaired_keys = {s.cell.key for s in statuses if s.state == "corrupt"}
        skipped = len(statuses) - len(pending)
        to_run = pending if max_cells is None else pending[:max_cells]
        pending_keys = {cell.key for cell in pending}
        for status in statuses:
            if status.cell.key not in pending_keys:
                telemetry.skip(status.cell.key)
                if collector.enabled:
                    collector.event(
                        "campaign.resume_skip", cell=status.cell.key
                    )

        executed: List[str] = []
        repaired = 0
        kwargs = [_cell_kwargs(spec, cell, spec.engine) for cell in to_run]
        cell_results = run_sweep_cells(kwargs, workers=workers, with_timing=True)
        for cell in to_run:
            try:
                metrics, elapsed = next(cell_results)
            except BrokenExecutor as error:
                # Cells arrive in order, so this is the first one the dead
                # pool did not finish.
                raise CampaignWorkerError(
                    f"a worker process died before cell {cell.label()} "
                    f"[{cell.key}] finished; the {len(executed)} cell(s) "
                    f"checkpointed by this run stay in the store, and "
                    f"running the campaign again resumes from there"
                ) from error
            fallback_count = sum(
                1
                for trial_metrics in metrics
                if "engine_fallback" in trial_metrics.extra
            )
            store.write_cell(
                cell, metrics, spec.engine, elapsed, fallback_count=fallback_count
            )
            telemetry.cell(
                cell.key,
                elapsed_seconds=elapsed,
                trials=len(metrics),
                fallbacks=fallback_count,
                engine=spec.engine,
            )
            executed.append(cell.key)
            if cell.key in repaired_keys:
                repaired += 1
            if echo is not None:
                echo(f"  cell {cell.label()} [{cell.key}] checkpointed")

        elapsed_seconds = _now() - started
        telemetry.run(
            elapsed_seconds=elapsed_seconds,
            cells=len(executed),
            skipped=skipped,
        )
        run_span.set(
            cells=len(executed), skipped=skipped, repaired=repaired
        )

    return CampaignRunSummary(
        campaign=spec.name,
        spec_hash=spec.spec_hash(),
        store=str(store_dir),
        engine=spec.engine,
        total_cells=len(statuses),
        skipped=skipped,
        executed=len(executed),
        repaired=repaired,
        remaining=len(pending) - len(executed),
        elapsed_seconds=elapsed_seconds,
        executed_cells=executed,
    )


def campaign_status(store_dir: "str | Path") -> str:
    """Human-readable status of a campaign store (for ``campaign status``).

    Reconstructs the spec from the manifest echo, verifies every cell, and
    reports complete/pending/corrupt counts plus per-cell lines.

    Raises:
        CampaignStoreError: if the directory is not a campaign store.
    """
    from .spec import spec_from_dict

    store = CampaignStore(store_dir)
    manifest = store.read_manifest()
    spec_echo = dict(manifest.get("spec", {}))
    spec = spec_from_dict(spec_echo)
    statuses = store.verify(spec)
    # Wall-time / throughput columns come from the observe-only telemetry
    # sidecar; a store without one (or written before telemetry existed)
    # renders exactly as before.
    telemetry = read_telemetry(telemetry_path_for_store(store.directory))
    timings = latest_cell_records(telemetry)
    by_state: Dict[str, int] = {"complete": 0, "pending": 0, "corrupt": 0}
    lines = [
        f"campaign {manifest.get('campaign')!r} "
        f"[{manifest.get('spec_hash', '')[:12]}] at {store.directory}",
        f"  repro version {manifest.get('repro_version')}, "
        f"{len(statuses)} cells",
    ]
    for status in statuses:
        by_state[status.state] = by_state.get(status.state, 0) + 1
        suffix = f" ({status.detail})" if status.detail else ""
        timing = timings.get(status.cell.key)
        timing_suffix = ""
        if timing is not None:
            elapsed = float(timing.get("elapsed_seconds", 0.0))
            rate = float(timing.get("trials_per_second", 0.0))
            timing_suffix = f"  {elapsed:8.2f}s {rate:10.1f} trials/s"
        lines.append(
            f"  [{status.state:8s}] {status.cell.label()} "
            f"{status.cell.key}{suffix}{timing_suffix}"
        )
    lines.append(
        f"  complete={by_state['complete']} pending={by_state['pending']} "
        f"corrupt={by_state['corrupt']}"
    )
    if timings:
        total_elapsed = sum(
            float(t.get("elapsed_seconds", 0.0)) for t in timings.values()
        )
        total_trials = sum(int(t.get("trials", 0)) for t in timings.values())
        overall = total_trials / total_elapsed if total_elapsed > 0 else 0.0
        lines.append(
            f"  telemetry: {total_elapsed:.2f}s across "
            f"{len(timings)} timed cells, {overall:.1f} trials/s overall"
        )
    return "\n".join(lines)
