"""Configuration of the reprolint analyzer (``[tool.reprolint]``).

The config answers exactly three questions:

* which files are linted at all (``exclude`` path globs);
* which rules are active (``disable`` — a list of rule codes);
* where a rule's construct is *legitimately* used (``allow`` — per-code
  path globs, e.g. the frozen ``random.Random`` streams documented in
  ``docs/determinism.md``).

Configuration lives in ``pyproject.toml``::

    [tool.reprolint]
    exclude = ["tests/lint_fixtures/*"]
    disable = []

    [tool.reprolint.allow]
    RPL001 = ["src/repro/graph/generators.py", ...]
    RPL004 = ["src/repro/campaign/store.py"]

Path globs are matched with :func:`fnmatch.fnmatch` against paths
normalized relative to the directory holding the config file (posix
separators), so the same pyproject works from any working directory.
When no config file is found, built-in defaults (:data:`DEFAULT_ALLOW`)
keep the linter useful out of the box — the repository's own pyproject
*replaces* the defaults wholesale, so the file is the single source of
truth once it exists.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_ALLOW",
    "LintConfig",
    "LintConfigError",
    "discover_config",
    "load_config",
]


class LintConfigError(ValueError):
    """The ``[tool.reprolint]`` block is malformed or unreadable."""


#: Built-in per-rule allowlists used when no ``pyproject.toml`` is found.
#: Each entry mirrors (and is superseded by) the repository config; the
#: rationale for every path lives in ``docs/determinism.md``.
DEFAULT_ALLOW: Mapping[str, Tuple[str, ...]] = {
    # Frozen stdlib-random streams (byte-compat pinned by tests/kernels).
    "RPL001": (
        "src/repro/graph/generators.py",
        "src/repro/graph/traces.py",
        "src/repro/algorithms/random_baseline.py",
        "src/repro/experiments/extensions.py",
        "src/repro/experiments/knowledge.py",
    ),
    # Seeded Generator construction sites (seeds derived via sim/seeding).
    "RPL003": (
        "src/repro/adversaries/randomized.py",
        "src/repro/adversaries/nonuniform.py",
        "src/repro/adversaries/mobility.py",
        "src/repro/search/loop.py",
    ),
    # Manifest bookkeeping timestamps (deliberately outside result bytes)
    # and the observability layer (the one sanctioned home for
    # perf_counter/monotonic — everything else uses repro.obs.now).
    "RPL004": ("src/repro/campaign/store.py", "src/repro/obs/*"),
    # The sentinel owner modules themselves.
    "RPL005": (
        "src/repro/offline/convergecast.py",
        "src/repro/ratio/semantics.py",
    ),
}


def _as_str_tuple(value: Any, where: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintConfigError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class LintConfig:
    """Immutable, validated reprolint configuration.

    Attributes:
        root: directory the path globs are relative to (the config file's
            directory, or the current directory for the default config).
        exclude: path globs of files skipped entirely.
        disable: rule codes switched off globally.
        allow: per-rule path globs where the rule does not fire.
    """

    root: Path = field(default_factory=Path)
    exclude: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    allow: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )

    def normalize(self, path: "str | Path") -> str:
        """``path`` relative to :attr:`root` when possible, posix separators."""
        resolved = Path(path).resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return Path(path).as_posix()

    def is_excluded(self, path: "str | Path") -> bool:
        """Whether ``path`` is skipped entirely (``exclude`` globs)."""
        normalized = self.normalize(path)
        return any(fnmatch(normalized, pattern) for pattern in self.exclude)

    def is_rule_disabled(self, code: str) -> bool:
        """Whether rule ``code`` is globally off."""
        return code in self.disable

    def is_allowed(self, code: str, path: "str | Path") -> bool:
        """Whether ``path`` is on rule ``code``'s allowlist."""
        normalized = self.normalize(path)
        return any(
            fnmatch(normalized, pattern) for pattern in self.allow.get(code, ())
        )


def _parse_tool_table(table: Mapping[str, Any], root: Path) -> LintConfig:
    known = {"exclude", "disable", "allow"}
    unknown = sorted(set(table) - known)
    if unknown:
        raise LintConfigError(
            f"unknown [tool.reprolint] keys: {unknown}; known: {sorted(known)}"
        )
    exclude = _as_str_tuple(table.get("exclude", ()), "[tool.reprolint] exclude")
    disable = _as_str_tuple(table.get("disable", ()), "[tool.reprolint] disable")
    allow_raw = table.get("allow", {})
    if not isinstance(allow_raw, Mapping):
        raise LintConfigError("[tool.reprolint.allow] must be a table")
    allow: Dict[str, Tuple[str, ...]] = {}
    for code, patterns in allow_raw.items():
        allow[str(code)] = _as_str_tuple(
            patterns, f"[tool.reprolint.allow] {code}"
        )
    return LintConfig(root=root, exclude=exclude, disable=disable, allow=allow)


def load_config(pyproject_path: "str | Path") -> LintConfig:
    """Load ``[tool.reprolint]`` from one ``pyproject.toml`` file.

    A pyproject without a ``[tool.reprolint]`` block yields an empty
    config rooted at the file's directory (no allowlists — the presence
    of the file makes it the source of truth).

    Raises:
        LintConfigError: when the file is missing, unparseable, or the
            block is malformed.
    """
    path = Path(pyproject_path)
    if not path.is_file():
        raise LintConfigError(f"config file not found: {path}")
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError) as error:
        raise LintConfigError(f"could not parse {path}: {error}") from None
    table = data.get("tool", {}).get("reprolint", {})
    if not isinstance(table, Mapping):
        raise LintConfigError("[tool.reprolint] must be a table")
    return _parse_tool_table(table, root=path.parent)


def discover_config(start: Optional["str | Path"] = None) -> LintConfig:
    """Find and load the nearest ``pyproject.toml`` at or above ``start``.

    Walks from ``start`` (default: the current directory) to the
    filesystem root; returns the built-in default config when no
    pyproject exists on the way up.
    """
    directory = Path(start) if start is not None else Path.cwd()
    directory = directory.resolve()
    if directory.is_file():
        directory = directory.parent
    for candidate_dir in (directory, *directory.parents):
        candidate = candidate_dir / "pyproject.toml"
        if candidate.is_file():
            return load_config(candidate)
    return LintConfig(root=directory)


def paths_from_args(paths: Sequence[str]) -> Tuple[Path, ...]:
    """Validated, deduplicated lint targets from CLI arguments."""
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintConfigError(f"no such file or directory: {raw}")
        seen.setdefault(path, None)
    return tuple(seen)
