"""Declarative campaign specifications.

A *campaign* is the full experiment grid of the paper expressed as data:
algorithms × adversary families × ``n`` values, with a trial count, a
master seed and an engine preference.  :class:`CampaignSpec` is the single
source of truth for that grid — the runner, the store and the report layer
all derive their structure from it.

Invariants:

* A spec is **validated on construction** against the live registries
  (:data:`repro.core.algorithm.registry` for algorithms,
  :data:`repro.adversaries.factory.ADVERSARY_FAMILIES` for adversary
  families, :func:`repro.sim.runner.resolve_engine` for engines), so an invalid
  campaign fails before any cell runs.
* :meth:`CampaignSpec.spec_hash` covers exactly the *result-determining*
  fields (algorithms, adversaries, ns, trials, master seed, experiment
  label, adversary parameters).  The engine and description are excluded on
  purpose: all engines produce identical results seed for seed, so a
  campaign resumed under a different engine must verify against the same
  hash.
* :meth:`CampaignSpec.cells` enumerates the grid in a fixed deterministic
  order (adversary-major, then algorithm, then ``n``) and every cell's
  :attr:`CampaignCell.key` is a pure function of ``(spec_hash, adversary,
  algorithm, n)`` — the content address used by the on-disk store.

Specs load from TOML (:func:`load_campaign_spec` with a ``.toml`` path,
via the standard-library ``tomllib``) or JSON; see ``docs/campaigns.md``
for the file format and a worked example.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..adversaries.factory import ADVERSARY_FAMILIES
from ..core.algorithm import DODAAlgorithm, registry
from ..sim.runner import AlgorithmFactory, resolve_engine, validate_sweep_parameters

__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "CampaignSpecError",
    "algorithm_factory_for",
    "load_campaign_spec",
    "spec_from_dict",
]


class CampaignSpecError(ValueError):
    """A campaign spec failed validation or could not be loaded."""


def algorithm_factory_for(name: str, tau: Optional[int] = None) -> AlgorithmFactory:
    """An ``n -> algorithm`` factory for a registered algorithm name.

    Fills in per-``n`` parameters the same way the CLI does: Waiting Greedy
    defaults its ``tau`` to the paper-optimal value unless overridden.

    Raises:
        CampaignSpecError: if ``name`` is not a registered algorithm.
    """
    if name not in registry.names():
        raise CampaignSpecError(
            f"unknown algorithm {name!r}; available: {', '.join(registry.names())}"
        )

    def factory(n: int) -> DODAAlgorithm:
        kwargs: Dict[str, Any] = {}
        if name == "waiting_greedy":
            from ..algorithms.waiting_greedy import optimal_tau

            kwargs["tau"] = tau if tau is not None else optimal_tau(n)
        return registry.create(name, **kwargs)

    return factory


@dataclass(frozen=True)
class CampaignCell:
    """One sweep cell of a campaign: all trials of one grid point.

    The cell is the unit of execution *and* of checkpointing: the runner
    executes a whole cell through one engine invocation and the store
    persists it as one shard.
    """

    adversary: str
    algorithm: str
    n: int
    key: str

    def label(self) -> str:
        """Human-readable cell label used in progress output."""
        return f"{self.adversary}/{self.algorithm}/n={self.n}"


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment campaign (validated on construction).

    Attributes:
        name: campaign identifier (used for the default store directory).
        algorithms: registered algorithm names to run.
        adversaries: adversary family names from
            :data:`~repro.adversaries.factory.ADVERSARY_FAMILIES`.
        ns: the ``n`` sweep (every value ``>= 2``).
        trials: independent trials per cell.
        master_seed: master seed; every trial's seed derives from
            ``(master_seed, experiment, algorithm, n, trial)`` exactly as in
            the plain sweep runners.
        experiment: seed-derivation label (changing it changes every seed).
        engine: default execution engine (overridable at run time — results
            are engine-invariant, wall-clock is not).  The retired name
            ``"fast"`` is still accepted and runs the vectorized engine.
        adversary_params: per-family parameter overrides, e.g.
            ``{"zipf": {"exponent": 1.5}}``.
        ratio: when True every trial also captures the offline-optimum
            baseline, so store records carry ``opt_cost`` and
            ``competitive_ratio`` and reports grow ratio tables.  This
            changes the shard contents, so it *is* part of the spec hash —
            but only when enabled, keeping every pre-ratio store's hash
            (and thus its resumability) intact.
        description: free-form text, ignored by the hash.
    """

    name: str
    algorithms: Tuple[str, ...]
    ns: Tuple[int, ...]
    adversaries: Tuple[str, ...] = ("uniform",)
    trials: int = 12
    master_seed: int = 0
    experiment: str = "campaign"
    engine: str = "vectorized"
    adversary_params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    ratio: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise CampaignSpecError("campaign needs a non-empty name")
        if not self.algorithms:
            raise CampaignSpecError("campaign needs at least one algorithm")
        if not self.adversaries:
            raise CampaignSpecError("campaign needs at least one adversary family")
        for algorithm in self.algorithms:
            if algorithm not in registry.names():
                raise CampaignSpecError(
                    f"unknown algorithm {algorithm!r}; "
                    f"available: {', '.join(registry.names())}"
                )
        for adversary in self.adversaries:
            if adversary not in ADVERSARY_FAMILIES:
                raise CampaignSpecError(
                    f"unknown adversary family {adversary!r}; "
                    f"available: {sorted(ADVERSARY_FAMILIES)}"
                )
        try:
            resolve_engine(self.engine)
            validate_sweep_parameters(self.ns, self.trials)
        except ValueError as error:
            raise CampaignSpecError(str(error)) from None
        for family in self.adversary_params:
            if family not in ADVERSARY_FAMILIES:
                raise CampaignSpecError(
                    f"adversary_params for unknown family {family!r}"
                )

    # ------------------------------------------------------------------ #
    # Hashing and enumeration
    # ------------------------------------------------------------------ #
    def result_fields(self) -> Dict[str, Any]:
        """The result-determining fields, in canonical (sorted-key) form.

        ``ratio`` joins the keyed fields only when enabled: capturing the
        offline baseline changes every shard's bytes, but a spec *without*
        it must keep the exact hash it had before the field existed so
        pre-ratio stores stay resume-compatible.
        """
        fields: Dict[str, Any] = {
            "adversaries": list(self.adversaries),
            "adversary_params": {
                family: dict(sorted(dict(params).items()))
                for family, params in sorted(dict(self.adversary_params).items())
            },
            "algorithms": list(self.algorithms),
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "ns": [int(n) for n in self.ns],
            "trials": self.trials,
        }
        if self.ratio:
            fields["ratio"] = True
        return fields

    def spec_hash(self) -> str:
        """SHA-256 over the canonical result-determining fields.

        Stable across engine/description changes and across
        processes (plain JSON, sorted keys, no floats in the keyed fields).
        """
        canonical = json.dumps(self.result_fields(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def cells(self) -> List[CampaignCell]:
        """The campaign's sweep cells in deterministic execution order."""
        spec_hash = self.spec_hash()
        cells: List[CampaignCell] = []
        for adversary in self.adversaries:
            for algorithm in self.algorithms:
                for n in self.ns:
                    cells.append(
                        CampaignCell(
                            adversary=adversary,
                            algorithm=algorithm,
                            n=int(n),
                            key=cell_key(spec_hash, adversary, algorithm, int(n)),
                        )
                    )
        return cells

    def params_for(self, adversary: str) -> Dict[str, Any]:
        """The parameter overrides of one adversary family (may be empty)."""
        return dict(self.adversary_params.get(adversary, {}))

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-serialisable representation (manifest ``spec`` field)."""
        data = self.result_fields()
        data.update(
            {
                "name": self.name,
                "description": self.description,
                "engine": self.engine,
                "ratio": self.ratio,
            }
        )
        return data

    def with_engine(self, engine: Optional[str]) -> "CampaignSpec":
        """A copy with the run-time engine override applied."""
        return self if engine is None else replace(self, engine=engine)


def cell_key(spec_hash: str, adversary: str, algorithm: str, n: int) -> str:
    """Content address of one cell: a pure function of grid point + spec."""
    digest = hashlib.sha256(
        f"{spec_hash}/{adversary}/{algorithm}/{n}".encode("utf-8")
    )
    return digest.hexdigest()[:16]


def spec_from_dict(data: Mapping[str, Any]) -> CampaignSpec:
    """Build a validated :class:`CampaignSpec` from a plain mapping.

    Accepts the exact key set of the TOML/JSON file format (see
    ``docs/campaigns.md``); unknown keys are rejected so typos fail loudly.
    ``block_size``, a retired key that older specs and store manifests
    carry, is accepted and ignored.

    Raises:
        CampaignSpecError: on unknown keys, missing required keys, or any
            validation failure.
    """
    known = {
        "name",
        "description",
        "algorithms",
        "adversaries",
        "ns",
        "trials",
        "master_seed",
        "experiment",
        "engine",
        "block_size",  # retired: accepted and ignored
        "adversary_params",
        "ratio",
    }
    unknown = set(data) - known
    if unknown:
        raise CampaignSpecError(
            f"unknown spec keys: {sorted(unknown)}; known keys: {sorted(known)}"
        )
    missing = {"name", "algorithms", "ns"} - set(data)
    if missing:
        raise CampaignSpecError(f"spec is missing required keys: {sorted(missing)}")

    def as_tuple(value: Any, key: str) -> Tuple[Any, ...]:
        if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
            raise CampaignSpecError(f"spec key {key!r} must be a list")
        return tuple(value)

    def as_int(value: Any, key: str) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise CampaignSpecError(f"spec key {key!r} must be an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise CampaignSpecError(
                f"spec key {key!r} must be an integer, got {value!r}"
            ) from None

    kwargs: Dict[str, Any] = {
        "name": data["name"],
        "algorithms": as_tuple(data["algorithms"], "algorithms"),
        "ns": tuple(as_int(n, "ns") for n in as_tuple(data["ns"], "ns")),
    }
    if "adversaries" in data:
        kwargs["adversaries"] = as_tuple(data["adversaries"], "adversaries")
    for key in ("trials", "master_seed"):
        if data.get(key) is not None:
            kwargs[key] = as_int(data[key], key)
    for key in ("experiment", "engine", "description"):
        if key in data:
            kwargs[key] = str(data[key])
    if "ratio" in data:
        if not isinstance(data["ratio"], bool):
            raise CampaignSpecError(
                f"spec key 'ratio' must be a boolean, got {data['ratio']!r}"
            )
        kwargs["ratio"] = data["ratio"]
    if "adversary_params" in data:
        params = data["adversary_params"]
        if not isinstance(params, Mapping):
            raise CampaignSpecError("adversary_params must be a table/mapping")
        kwargs["adversary_params"] = {
            str(family): dict(overrides) for family, overrides in params.items()
        }
    return CampaignSpec(**kwargs)


def load_campaign_spec(path: "str | Path") -> CampaignSpec:
    """Load and validate a campaign spec from a ``.toml`` or ``.json`` file.

    Raises:
        CampaignSpecError: if the file is missing, not parseable, or fails
            spec validation.
    """
    spec_path = Path(path)
    if not spec_path.exists():
        raise CampaignSpecError(f"spec file not found: {spec_path}")
    text = spec_path.read_text(encoding="utf-8")
    suffix = spec_path.suffix.lower()
    try:
        if suffix == ".toml":
            import tomllib

            data = tomllib.loads(text)
        elif suffix == ".json":
            data = json.loads(text)
        else:
            raise CampaignSpecError(
                f"unsupported spec format {suffix!r} (use .toml or .json)"
            )
    except CampaignSpecError:
        raise
    except Exception as error:
        raise CampaignSpecError(f"could not parse {spec_path}: {error}") from None
    if not isinstance(data, Mapping):
        raise CampaignSpecError(f"{spec_path} must contain a table/object at top level")
    return spec_from_dict(data)
