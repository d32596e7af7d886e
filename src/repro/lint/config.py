"""simlint configuration: defaults plus a ``[tool.simlint]`` pyproject table.

The loader is dependency-light: it uses :mod:`tomllib` (stdlib on
3.11+) or :mod:`tomli` when available, and silently falls back to the
built-in defaults otherwise — the linter must run in minimal
environments, and the defaults encode this repository's conventions.

v2 adds per-tree rule selection (``[tool.simlint.per-tree."tests/*"]``
tables overlay ``select``/``ignore`` for matching paths), the baseline
file, the SIM014 producer lock, and the target sets the project rules
resolve against (parallel-map entry points, cache registrars, derive
functions).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.10
    try:
        import tomli as _toml  # type: ignore[import-not-found, no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]

__all__ = ["LintConfig", "TreeRules", "load_config", "find_pyproject"]

# Modules allowed to touch numpy's RNG constructors directly (SIM001).
# Matched as a path *suffix* so absolute and relative invocations agree.
DEFAULT_RNG_MODULES = ("repro/utils/rng.py",)

# Paths where wall-clock reads are legitimate (SIM002): benchmarks time
# themselves, and the observability package exists to measure durations
# (its outputs are observational only and never feed simulation state).
DEFAULT_WALLCLOCK_EXEMPT = (
    "benchmarks/*",
    "*/benchmarks/*",
    "repro/obs/*",
    "*/repro/obs/*",
)

DEFAULT_EXCLUDE = ("*/.git/*", "*/__pycache__/*", "*/build/*", "*/dist/*")

# SIM011: deterministic fan-out entry points whose ``key=`` constants
# span the task streams (key, 0), (key, 1), ...
DEFAULT_PARALLEL_MAPS = ("repro.runtime.parallel.pmap",)

# SIM013/SIM014: the artifact-cache registrar whose compute callables
# must be pure functions of their cache key.
DEFAULT_CACHE_REGISTRARS = ("repro.runtime.cache.cached_call",)

# SIM011: the named-stream derivation whose constant key tuples must be
# unique per experiment entry point.
DEFAULT_DERIVE_FUNCTIONS = ("repro.utils.rng.derive",)

# SIM008: modules where bare print() is the job — CLI entry points and
# console reporting.  Everything else must use repro.obs.log.
DEFAULT_PRINT_ALLOWED = (
    "*/cli.py",
    "*/__main__.py",
    "*/reporting.py",
)

# SIM013: observational-only modules.  Functions defined in these
# modules record metrics/spans/logs and are excluded from cache-purity
# reachability — by contract nothing they compute may flow back into a
# cached value.  The write-sanitizer is enforcement instrumentation of
# the same kind: its env switch gates fault *detection*, never values.
DEFAULT_OBS_MODULES = ("repro.obs", "repro.runtime.sanitize")


@dataclass(frozen=True)
class TreeRules:
    """Per-tree overlay: ``select``/``ignore`` for paths matching ``pattern``.

    ``pattern`` is a glob tested against the lint-relative posix path
    and, for absolute invocations, against every suffix starting at a
    path component (so ``tests/*`` matches ``/repo/tests/x.py`` too).
    """

    pattern: str
    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()

    def matches(self, posix_path: str) -> bool:
        if fnmatch.fnmatch(posix_path, self.pattern):
            return True
        return fnmatch.fnmatch(posix_path, f"*/{self.pattern}")


@dataclass(frozen=True)
class LintConfig:
    """Resolved simlint configuration.

    ``select``/``ignore`` are rule-code sets; an empty ``select`` means
    "all registered rules".  CLI flags override the pyproject table.
    ``root`` is the directory of the pyproject the config came from —
    relative artifact paths (baseline, producer lock) resolve against
    it, falling back to the current directory when configless.
    """

    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    rng_modules: tuple[str, ...] = DEFAULT_RNG_MODULES
    wallclock_exempt: tuple[str, ...] = DEFAULT_WALLCLOCK_EXEMPT
    per_tree: tuple[TreeRules, ...] = ()
    parallel_maps: tuple[str, ...] = DEFAULT_PARALLEL_MAPS
    cache_registrars: tuple[str, ...] = DEFAULT_CACHE_REGISTRARS
    derive_functions: tuple[str, ...] = DEFAULT_DERIVE_FUNCTIONS
    print_allowed: tuple[str, ...] = DEFAULT_PRINT_ALLOWED
    obs_modules: tuple[str, ...] = DEFAULT_OBS_MODULES
    baseline: str = ""
    producers_lock: str = ""
    root: Path = field(default_factory=Path.cwd)

    def is_rule_enabled(self, code: str, posix_path: str | None = None) -> bool:
        """Apply select/ignore filtering, with per-tree overlays.

        The first matching per-tree table *overlays* the global sets:
        its ``ignore`` adds to the global ignore, and a non-empty
        per-tree ``select`` replaces the global one for that tree.
        """
        select, ignore = self.select, self.ignore
        if posix_path is not None:
            for tree in self.per_tree:
                if tree.matches(posix_path):
                    if tree.select:
                        select = tree.select
                    ignore = ignore | tree.ignore
                    break
        if select and code not in select:
            return False
        return code not in ignore

    def resolve_path(self, raw: str) -> Path:
        """Resolve a configured artifact path against the config root."""
        path = Path(raw)
        return path if path.is_absolute() else self.root / path

    @property
    def baseline_path(self) -> Path | None:
        return self.resolve_path(self.baseline) if self.baseline else None

    @property
    def producers_lock_path(self) -> Path | None:
        return self.resolve_path(self.producers_lock) if self.producers_lock else None


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _as_str_tuple(value: Any, key: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise TypeError(f"[tool.simlint] {key!r} must be a list of strings")
    return tuple(value)


def _as_str(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"[tool.simlint] {key!r} must be a string")
    return value


def _parse_per_tree(raw: Any) -> tuple[TreeRules, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, dict):
        raise TypeError("[tool.simlint] 'per-tree' must be a table of tables")
    trees: list[TreeRules] = []
    for pattern, table in raw.items():
        if not isinstance(table, dict):
            raise TypeError(
                f"[tool.simlint.per-tree] {pattern!r} must be a table"
            )
        trees.append(
            TreeRules(
                pattern=str(pattern),
                select=frozenset(
                    _as_str_tuple(table.get("select", []), f"per-tree.{pattern}.select")
                ),
                ignore=frozenset(
                    _as_str_tuple(table.get("ignore", []), f"per-tree.{pattern}.ignore")
                ),
            )
        )
    return tuple(trees)


def load_config(
    pyproject: Path | None,
    *,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
) -> LintConfig:
    """Build a :class:`LintConfig` from a pyproject file plus overrides.

    ``select``/``ignore`` (from the CLI) replace — not merge with — the
    corresponding pyproject keys, mirroring how ruff/flake8 behave.
    """
    table: dict[str, Any] = {}
    if pyproject is not None and _toml is not None:
        try:
            with pyproject.open("rb") as handle:
                data = _toml.load(handle)
        except (OSError, ValueError):
            data = {}
        tool = data.get("tool")
        if isinstance(tool, dict):
            raw = tool.get("simlint")
            if isinstance(raw, dict):
                # Accept both hyphenated (TOML idiom) and underscored keys.
                table = {key.replace("-", "_"): value for key, value in raw.items()}

    defaults = LintConfig()
    return LintConfig(
        select=(
            select
            if select is not None
            else frozenset(_as_str_tuple(table.get("select", []), "select"))
        ),
        ignore=(
            ignore
            if ignore is not None
            else frozenset(_as_str_tuple(table.get("ignore", []), "ignore"))
        ),
        exclude=_as_str_tuple(table.get("exclude", defaults.exclude), "exclude"),
        rng_modules=_as_str_tuple(
            table.get("rng_modules", defaults.rng_modules), "rng_modules"
        ),
        wallclock_exempt=_as_str_tuple(
            table.get("wallclock_exempt", defaults.wallclock_exempt),
            "wallclock_exempt",
        ),
        per_tree=_parse_per_tree(table.get("per_tree")),
        parallel_maps=_as_str_tuple(
            table.get("parallel_maps", defaults.parallel_maps), "parallel_maps"
        ),
        cache_registrars=_as_str_tuple(
            table.get("cache_registrars", defaults.cache_registrars),
            "cache_registrars",
        ),
        derive_functions=_as_str_tuple(
            table.get("derive_functions", defaults.derive_functions),
            "derive_functions",
        ),
        print_allowed=_as_str_tuple(
            table.get("print_allowed", defaults.print_allowed), "print_allowed"
        ),
        obs_modules=_as_str_tuple(
            table.get("obs_modules", defaults.obs_modules), "obs_modules"
        ),
        baseline=_as_str(table.get("baseline", ""), "baseline"),
        producers_lock=_as_str(table.get("producers_lock", ""), "producers_lock"),
        root=(pyproject.parent if pyproject is not None else Path.cwd()),
    )
