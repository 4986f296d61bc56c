"""Content-addressed worst-case corpus: the search's finds as regression data.

Layout (one directory per corpus)::

    <store>/
        manifest.json               # format, one summary entry per instance
        instances/<digest>.json     # full instance payload, canonical bytes

Invariants (the campaign store's discipline, applied to search finds):

* **Instance files are canonical byte streams.**  An instance's payload is
  serialised with sorted keys and compact separators, carries no
  timestamps, and the file holds exactly the digested bytes — so the
  SHA-256 digest in the manifest is recomputable from the file alone, and
  two searches with the same config produce byte-identical stores.
* **Every instance is self-contained and replayable.**  The payload stores
  the full mutated schedule (dense index arrays), the search config echo,
  the base seed and the mutation lineage, plus the scored metrics.
  :func:`replay_instance` rebuilds the schedule as a
  :class:`~repro.adversaries.mobility.TraceReplayAdversary` and re-runs it
  on any engine; the contract (asserted by experiment E26 and the golden
  corpus tests) is that the stored competitive ratio reproduces
  **bit-for-bit** on both engines.
* **Writes are atomic** (temp file + ``os.replace``), and adding an
  instance that is already present is a no-op — the digest is the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..campaign.store import _atomic_write
from ..sim.metrics import TrialMetrics
from .loop import SearchCandidate, SearchConfig, SearchOutcome, score_schedules
from .mutations import MutationRecord, Schedule

__all__ = [
    "CORPUS_MANIFEST_NAME",
    "WorstCaseCorpus",
    "WorstCaseCorpusError",
    "WorstCaseInstance",
    "instance_from_candidate",
    "replay_instance",
]

CORPUS_MANIFEST_NAME = "manifest.json"
_INSTANCE_DIR = "instances"
_FORMAT = 1


class WorstCaseCorpusError(RuntimeError):
    """The corpus is unreadable, corrupt, or the instance is invalid."""


@dataclass(frozen=True)
class WorstCaseInstance:
    """One persisted search find — everything needed to replay it exactly."""

    algorithm: str
    family: str
    n: int
    sink: int
    horizon: int
    search: Dict[str, Any]
    base_seed: int
    lineage: List[Dict[str, Any]]
    schedule_i: List[int]
    schedule_j: List[int]
    metrics: Dict[str, Any]

    @property
    def competitive_ratio(self) -> float:
        return float(self.metrics["competitive_ratio"])

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format": _FORMAT,
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "sink": self.sink,
            "horizon": self.horizon,
            "search": self.search,
            "base_seed": self.base_seed,
            "lineage": self.lineage,
            "schedule": {"i": self.schedule_i, "j": self.schedule_j},
            "metrics": self.metrics,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_schedule(self) -> Schedule:
        return Schedule(
            i=np.asarray(self.schedule_i, dtype=np.int64),
            j=np.asarray(self.schedule_j, dtype=np.int64),
            n=self.n,
        )

    def mutation_records(self) -> List[MutationRecord]:
        return [MutationRecord.from_json(entry) for entry in self.lineage]

    def to_config(self, engine: Optional[str] = None) -> SearchConfig:
        """The search config this instance was found under.

        ``engine`` overrides the recorded engine (replay runs want to pick
        the engine per call).
        """
        search = self.search
        return SearchConfig(
            algorithm=self.algorithm,
            family=self.family,
            n=self.n,
            budget=int(search["budget"]),
            seed=int(search["seed"]),
            sink=self.sink,
            engine=str(engine if engine is not None else search["engine"]),
            pool_size=int(search["pool_size"]),
            generation_size=int(search["generation_size"]),
            initial_samples=int(search["initial_samples"]),
            horizon=self.horizon,
            tau=search.get("tau"),
            adversary_params=dict(search.get("adversary_params") or {}) or None,
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WorstCaseInstance":
        if int(payload.get("format", -1)) != _FORMAT:
            raise WorstCaseCorpusError(
                f"unsupported corpus instance format {payload.get('format')!r}"
            )
        schedule = payload["schedule"]
        return cls(
            algorithm=str(payload["algorithm"]),
            family=str(payload["family"]),
            n=int(payload["n"]),
            sink=int(payload["sink"]),
            horizon=int(payload["horizon"]),
            search=dict(payload["search"]),
            base_seed=int(payload["base_seed"]),
            lineage=[dict(entry) for entry in payload["lineage"]],
            schedule_i=[int(v) for v in schedule["i"]],
            schedule_j=[int(v) for v in schedule["j"]],
            metrics=dict(payload["metrics"]),
        )


def _metrics_payload(metrics: TrialMetrics) -> Dict[str, Any]:
    ratio = metrics.competitive_ratio
    if (
        not metrics.terminated
        or ratio is None
        or not math.isfinite(ratio)
        or metrics.opt_cost is None
        or not math.isfinite(metrics.opt_cost)
    ):
        raise WorstCaseCorpusError(
            "only terminated, finite-ratio candidates belong in the corpus "
            f"(terminated={metrics.terminated}, ratio={ratio})"
        )
    return {
        "competitive_ratio": float(ratio),
        "duration": int(metrics.duration),
        "opt_cost": float(metrics.opt_cost),
        "sink_coverage": float(metrics.sink_coverage),
        "terminated": True,
        "transmissions": int(metrics.transmissions),
    }


def instance_from_candidate(
    config: SearchConfig, candidate: SearchCandidate
) -> WorstCaseInstance:
    """Freeze one scored candidate into a self-contained corpus instance."""
    return WorstCaseInstance(
        algorithm=config.algorithm,
        family=config.family,
        n=config.n,
        sink=int(config.sink),
        horizon=config.resolved_horizon(),
        search=config.to_json(),
        base_seed=int(candidate.base_seed),
        lineage=[record.to_json() for record in candidate.lineage],
        schedule_i=candidate.schedule.i.tolist(),
        schedule_j=candidate.schedule.j.tolist(),
        metrics=_metrics_payload(candidate.metrics),
    )


def replay_instance(
    instance: WorstCaseInstance, engine: str = "reference"
) -> TrialMetrics:
    """Re-run a stored instance on ``engine`` and return fresh metrics.

    The schedule replays through the same scoring path the search used
    (TraceReplayAdversary → one engine trial with ``capture_opt=True``), so
    equality with ``instance.metrics`` is exact, not approximate.
    """
    config = instance.to_config(engine=engine)
    metrics = score_schedules(
        config, [instance.to_schedule()], [instance.base_seed]
    )
    return metrics[0]


class WorstCaseCorpus:
    """Content-addressed store of worst-case instances (see module docstring)."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / CORPUS_MANIFEST_NAME
        self.instance_dir = self.directory / _INSTANCE_DIR

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def read_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            return {"format": _FORMAT, "instances": {}}
        try:
            manifest = json.loads(self.manifest_path.read_text("utf-8"))
        except json.JSONDecodeError as error:
            raise WorstCaseCorpusError(
                f"corrupt corpus manifest {self.manifest_path}: {error}"
            ) from error
        if int(manifest.get("format", -1)) != _FORMAT:
            raise WorstCaseCorpusError(
                f"unsupported corpus format {manifest.get('format')!r}"
            )
        if not isinstance(manifest.get("instances"), dict):
            raise WorstCaseCorpusError("corpus manifest has no instance table")
        return manifest

    def manifest_bytes(self) -> bytes:
        """The manifest's canonical serialisation (determinism probe)."""
        return json.dumps(
            self.read_manifest(), indent=2, sort_keys=True
        ).encode("utf-8")

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.manifest_path, payload)

    # ------------------------------------------------------------------ #
    # Instances
    # ------------------------------------------------------------------ #
    def instance_path(self, digest: str) -> Path:
        return self.instance_dir / f"{digest}.json"

    def digests(self) -> List[str]:
        return sorted(self.read_manifest()["instances"])

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        return dict(self.read_manifest()["instances"])

    def add(self, instance: WorstCaseInstance) -> str:
        """Persist one instance; returns its digest (no-op if present)."""
        payload = instance.canonical_bytes()
        digest = instance.digest()
        manifest = self.read_manifest()
        if digest in manifest["instances"]:
            return digest
        self.instance_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.instance_path(digest), payload)
        manifest["instances"][digest] = {
            "algorithm": instance.algorithm,
            "family": instance.family,
            "n": instance.n,
            "competitive_ratio": instance.competitive_ratio,
            "seed": int(instance.search["seed"]),
            "budget": int(instance.search["budget"]),
            "lineage_depth": len(instance.lineage),
        }
        self._write_manifest(manifest)
        return digest

    def add_outcome(self, outcome: SearchOutcome, top: int = 1) -> List[str]:
        """Store the ``top`` best finite-ratio candidates of one search run."""
        digests: List[str] = []
        for candidate in outcome.pool[: max(top, 1)]:
            if not math.isfinite(candidate.score):
                continue
            digests.append(
                self.add(instance_from_candidate(outcome.config, candidate))
            )
        return digests

    def load(self, digest: str) -> WorstCaseInstance:
        """Load and digest-verify one instance."""
        path = self.instance_path(digest)
        if not path.exists():
            raise WorstCaseCorpusError(f"no corpus instance {digest!r}")
        raw = path.read_bytes()
        actual = hashlib.sha256(raw).hexdigest()
        if actual != digest:
            raise WorstCaseCorpusError(
                f"corpus instance {digest[:12]}… is corrupt: "
                f"file bytes hash to {actual[:12]}…"
            )
        instance = WorstCaseInstance.from_payload(json.loads(raw.decode("utf-8")))
        return instance

    def load_all(self) -> Dict[str, WorstCaseInstance]:
        return {digest: self.load(digest) for digest in self.digests()}

    def best_for(
        self, algorithm: str, family: str
    ) -> Optional[WorstCaseInstance]:
        """The hardest stored instance of one algorithm × family pair."""
        best: Optional[WorstCaseInstance] = None
        for digest, summary in sorted(self.summaries().items()):
            if summary["algorithm"] != algorithm or summary["family"] != family:
                continue
            instance = self.load(digest)
            if best is None or instance.competitive_ratio > best.competitive_ratio:
                best = instance
        return best

    def verify(self) -> List[str]:
        """Digest-check every instance; returns the corrupt digests."""
        corrupt: List[str] = []
        for digest in self.digests():
            try:
                self.load(digest)
            except WorstCaseCorpusError:
                corrupt.append(digest)
        return corrupt
