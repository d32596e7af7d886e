"""The SIM011, SIM013 and SIM014 project rules (cross-module analysis).

These rules guard the ``pmap``/``derive`` worker streams and the
content-addressed artifact cache, where a single undisciplined call
site silently correlates "independent" samples or poisons cached
artifacts:

========  ===========================================================
SIM011    ``derive(...)``/``pmap(key=...)`` constant key tuples must
          not collide under a shared experiment entry point
SIM013    ``cached_call`` producers are pure functions of their key
          (no env, wall clock, fresh RNG, or mutated module globals)
SIM014    a producer whose normalized AST digest changed must bump its
          ``version`` (tracked in the committed producers lock)
========  ===========================================================

All three are :class:`~repro.lint.rules.ProjectRule`\\ s: they run over
the phase-1 :class:`~repro.lint.index.ProjectIndex` (symbol table and
call graph) rather than a single file's tree.  Two former rules of
this family are runtime checks now: ``pmap`` refuses a live generator
crossing its task boundary, and the shm owners count every owner their
garbage-collection net had to close (docs/static-analysis.md).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator
from weakref import WeakKeyDictionary

from repro.lint.diagnostics import Diagnostic
from repro.lint.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_name,
    normalized_digest,
    tree_nodes,
)
from repro.lint.rules import ProjectContext, register_rule

__all__ = [
    "CachePurityRule",
    "DerivedSeedCollisionRule",
    "LockEntry",
    "Producer",
    "VersionBumpRule",
    "compute_lock_entries",
    "find_producers",
    "load_producers_lock",
    "write_producers_lock",
]

LOCK_SCHEMA_VERSION = 1


def _diag(path: str, node: ast.AST, code: str, message: str) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# ---------------------------------------------------------------------
# SIM011 — derived-seed collisions
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class _KeySite:
    """One constant-keyed stream derivation site."""

    owner: str  # enclosing function qualname
    path: str
    line: int
    col: int
    keys: tuple[object, ...]  # constant derive keys, or (pmap_key,)
    is_pmap: bool
    #: how the site spells its seed: ("const", v) / ("name", id) /
    #: ("opaque",).  Identical keys only collide when the seeds can be
    #: the same value — distinct constants prove independence, distinct
    #: variable names leave it unprovable either way.
    seed: tuple[object, ...] = ("opaque",)


def _seed_token(expr: ast.expr | None) -> tuple[object, ...]:
    if isinstance(expr, ast.Constant):
        return ("const", expr.value)
    if isinstance(expr, ast.Name):
        return ("name", expr.id)
    return ("opaque",)


@register_rule
class DerivedSeedCollisionRule:
    """SIM011 — constant derive keys must be unique per entry point.

    Two ``derive(seed, *keys)`` call sites with identical constant key
    tuples produce *identical generators* when reached from the same
    experiment (same root seed): their draws are correlated, not
    independent, which silently biases every statistic averaged over
    them.  ``pmap(key=K)`` sites participate as the family
    ``(K, 0), (K, 1), ...`` — the docstring's own warning, enforced.
    """

    code = "SIM011"
    summary = "derive()/pmap(key=...) constant key tuples collide under one entry point"

    def _collect(self, ctx: ProjectContext) -> list[_KeySite]:
        sites: list[_KeySite] = []
        for func in ctx.index.functions.values():
            module = ctx.index.modules[func.module]
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = ctx.index.qualified_chain(node.func, module)
                if chain in ctx.config.derive_functions:
                    if len(node.args) < 2 or node.keywords:
                        continue
                    keys: list[object] = []
                    constant = True
                    for arg in node.args[1:]:
                        if isinstance(arg, ast.Constant):
                            keys.append(arg.value)
                        else:
                            constant = False
                            break
                    if constant:
                        sites.append(
                            _KeySite(
                                owner=func.qualname, path=func.path,
                                line=node.lineno, col=node.col_offset,
                                keys=tuple(keys), is_pmap=False,
                                seed=_seed_token(node.args[0]),
                            )
                        )
                elif chain in ctx.config.parallel_maps:
                    seed_expr = next(
                        (kw.value for kw in node.keywords if kw.arg == "seed"),
                        None,
                    )
                    for kw in node.keywords:
                        if kw.arg == "key" and isinstance(kw.value, ast.Constant):
                            sites.append(
                                _KeySite(
                                    owner=func.qualname, path=func.path,
                                    line=node.lineno, col=node.col_offset,
                                    keys=(kw.value.value,), is_pmap=True,
                                    seed=_seed_token(seed_expr),
                                )
                            )
        return sorted(sites, key=lambda s: (s.path, s.line, s.col))

    @staticmethod
    def _collide(a: _KeySite, b: _KeySite) -> bool:
        # Provably-different or unknowable seeds cannot be shown to
        # yield the same stream; only matching seed spellings collide.
        if a.seed == ("opaque",) or b.seed == ("opaque",) or a.seed != b.seed:
            return False
        if a.is_pmap and b.is_pmap:
            return a.keys[0] == b.keys[0]
        if a.is_pmap != b.is_pmap:
            pmap, drv = (a, b) if a.is_pmap else (b, a)
            # pmap key K spans (K, i) for integer task indices i.
            return (
                len(drv.keys) == 2
                and drv.keys[0] == pmap.keys[0]
                and isinstance(drv.keys[1], int)
                and not isinstance(drv.keys[1], bool)
            )
        return a.keys == b.keys

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        sites = self._collect(ctx)
        for i, later in enumerate(sites):
            for earlier in sites[:i]:
                if (earlier.path, earlier.line) == (later.path, later.line):
                    continue
                if not self._collide(earlier, later):
                    continue
                shared = ctx.index.ancestors(earlier.owner) & ctx.index.ancestors(
                    later.owner
                )
                if not shared:
                    continue
                root = sorted(shared)[0]
                what = "pmap task-stream key" if later.is_pmap else "derive key tuple"
                node = ast.Constant(value=None)
                node.lineno, node.col_offset = later.line, later.col
                yield _diag(
                    later.path, node, self.code,
                    f"{what} {later.keys!r} collides with "
                    f"{earlier.path}:{earlier.line} (both reachable from "
                    f"{root}); identical (seed, key) tuples yield identical "
                    "generators — use distinct stream keys",
                )
                break


# ---------------------------------------------------------------------
# Producers (shared by SIM013 / SIM014)
# ---------------------------------------------------------------------


@dataclass
class Producer:
    """One ``cached_call`` registration resolved from the index."""

    name: str | None  # constant producer name, None when dynamic
    version: int | None  # resolved constant version, None when dynamic
    call: ast.Call
    version_node: ast.expr | None
    compute_node: ast.AST | None  # Lambda / FunctionDef of the compute callable
    owner: FunctionInfo
    module: ModuleInfo


#: ``find_producers`` is asked the same question by SIM013 and SIM014;
#: the scan is a full-repo AST walk, so share one answer per index.
_PRODUCERS_CACHE: "WeakKeyDictionary[ProjectIndex, list[Producer]]" = (
    WeakKeyDictionary()
)


def find_producers(ctx: ProjectContext) -> list[Producer]:
    """Every ``cached_call(name, version, digest, compute)`` site."""
    cached = _PRODUCERS_CACHE.get(ctx.index)
    if cached is not None:
        return cached
    producers: list[Producer] = []
    for func in ctx.index.functions.values():
        module = ctx.index.modules[func.module]
        calls: list[ast.Call] = []
        local_defs: dict[str, ast.AST] = {}
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_defs[node.name] = node
        for node in calls:
            chain = ctx.index.qualified_chain(node.func, module)
            if chain not in ctx.config.cache_registrars:
                continue
            args: dict[str, ast.expr | None] = {
                "name": None, "version": None, "compute": None
            }
            positional = ("name", "version", "digest", "compute")
            for i, arg in enumerate(node.args[:4]):
                args[positional[i]] = arg if positional[i] != "digest" else None
            for kw in node.keywords:
                if kw.arg in args:
                    args[kw.arg] = kw.value

            name_node = args["name"]
            name = (
                name_node.value
                if isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
                else None
            )
            version_node = args["version"]
            version: int | None = None
            if isinstance(version_node, ast.Constant) and isinstance(
                version_node.value, int
            ):
                version = version_node.value
            elif isinstance(version_node, ast.Name):
                version = module.int_constants.get(version_node.id)

            compute_expr = args["compute"]
            compute_node: ast.AST | None = None
            if isinstance(compute_expr, ast.Lambda):
                compute_node = compute_expr
            elif isinstance(compute_expr, ast.Name):
                if compute_expr.id in local_defs:
                    compute_node = local_defs[compute_expr.id]
                else:
                    resolved = ctx.index.resolve_name(
                        compute_expr.id, module, func
                    )
                    if resolved is not None and resolved[1] == "function":
                        compute_node = ctx.index.functions[resolved[0]].node
            producers.append(
                Producer(
                    name=name, version=version, call=node,
                    version_node=version_node, compute_node=compute_node,
                    owner=func, module=module,
                )
            )
    _PRODUCERS_CACHE[ctx.index] = producers
    return producers


def _compute_reachable(
    ctx: ProjectContext, producer: Producer
) -> list[FunctionInfo]:
    """Project functions transitively reachable from the compute callable.

    Functions living in a registrar's own module (the cache machinery
    itself) are excluded: the infrastructure deliberately reads the
    REPRO_CACHE knobs to decide *whether* to cache, which never changes
    the produced value, and hashing it into SIM014 digests would flag
    every producer whenever the cache plumbing is refactored.

    Observational modules (``obs_modules``, e.g. ``repro.obs``) are
    likewise excluded: they time and count what producers do without
    ever feeding a value back, so their clock reads and registry
    updates are not impurities of the producer, and refactoring the
    instrumentation must not churn SIM014 digests.
    """
    if producer.compute_node is None:
        return []
    trusted_modules = {
        registrar.rsplit(".", 1)[0] for registrar in ctx.config.cache_registrars
    }
    obs_prefixes = tuple(ctx.config.obs_modules)

    def is_observational(module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in obs_prefixes
        )
    roots: set[str] = set()
    for node in ast.walk(producer.compute_node):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.index.resolve_call(node, producer.module, producer.owner)
        if resolved is None:
            continue
        qualname, kind = resolved
        roots.add(f"{qualname}.__init__" if kind == "class" else qualname)
    reachable: set[str] = set()
    for root in roots:
        if root in ctx.index.functions:
            reachable.add(root)
            reachable |= ctx.index.reachable_from(root)
    return [
        ctx.index.functions[q]
        for q in sorted(reachable)
        if q in ctx.index.functions
        and ctx.index.functions[q].module not in trusted_modules
        and not is_observational(ctx.index.functions[q].module)
    ]


# ---------------------------------------------------------------------
# SIM013 — cache purity
# ---------------------------------------------------------------------

_WALLCLOCK_FUNCS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

_RNG_CONSTRUCTOR_SUFFIXES = ("make_rng", "default_rng")

_MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop",
     "popitem", "clear", "remove", "discard"}
)


def _mutated_globals(module: ModuleInfo) -> frozenset[str]:
    """Module-level names whose contents change at runtime.

    A read of such a name inside a cached producer makes the artifact
    depend on call history rather than on the cache key.
    """
    top_level: set[str] = set()
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    top_level.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            top_level.add(stmt.target.id)
    mutated: set[str] = set()
    for node in tree_nodes(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    mutated.update(n for n in sub.names if n in top_level)
                elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in top_level
                        ):
                            mutated.add(target.value.id)
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATING_METHODS
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in top_level
                ):
                    mutated.add(sub.func.value.id)
    return frozenset(mutated)


def _impurities(
    ctx: ProjectContext,
    body: ast.AST,
    module: ModuleInfo,
    mutated: frozenset[str],
) -> Iterator[str]:
    """Impure reads inside one function body (human-readable labels).

    Mutated-global handling recognizes the memoization idiom: a body
    that both reads *and* key-stores into the same global
    (``cache[k] = v`` … ``return cache[k]``) implements a value-neutral
    cache and is not flagged.  Accumulating methods (``.append`` and
    friends) do *not* earn the exemption — a body reading a global it
    appends to returns call-history, which is exactly the poison this
    rule exists to catch.
    """
    writes: set[str] = set()
    store_targets: set[int] = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if isinstance(node.value, ast.Name):
                writes.add(node.value.id)
                store_targets.add(id(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            # The method call's own name node is a mutation, not a
            # value read — but it grants no read exemption.
            store_targets.add(id(node.func.value))
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is None:
                continue
            resolved = ctx.index.qualified_chain(node.func, module) or chain
            if resolved in _WALLCLOCK_FUNCS:
                yield f"reads the wall clock via {resolved}()"
            elif resolved in ("os.getenv", "os.environ.get"):
                yield f"reads os.environ via {resolved}()"
            elif resolved.rpartition(".")[2] in _RNG_CONSTRUCTOR_SUFFIXES:
                seed_args = list(node.args) + [kw.value for kw in node.keywords]
                if not seed_args or all(
                    isinstance(a, ast.Constant) and a.value is None
                    for a in seed_args
                ):
                    yield (
                        f"draws fresh OS entropy via {resolved}() with no seed"
                    )
        elif isinstance(node, ast.Attribute):
            chain = dotted_name(node)
            if chain is not None and ctx.index.qualified_chain(
                node, module
            ) == "os.environ":
                yield "reads os.environ"
        elif isinstance(node, ast.Global):
            yield f"declares global {', '.join(node.names)}"
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in mutated
            and node.id not in writes
            and id(node) not in store_targets
        ):
            yield f"reads mutated module global {node.id!r}"


@register_rule
class CachePurityRule:
    """SIM013 — cached producers are pure functions of their cache key.

    ``cached_call`` replays a pickled artifact whenever ``(name,
    version, digest)`` matches; anything the producer reads that is not
    captured by that key — environment variables, the wall clock, fresh
    OS-entropy RNG, module globals mutated at runtime — makes the first
    run's incidental state everyone else's permanent answer.
    """

    code = "SIM013"
    summary = "cached_call producers must not read env/clock/fresh-RNG/mutated globals"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        mutated_cache: dict[str, frozenset[str]] = {}
        for producer in find_producers(ctx):
            if producer.compute_node is None:
                continue
            label = producer.name or "<dynamic>"
            scanned: list[tuple[ast.AST, ModuleInfo, str]] = [
                (producer.compute_node, producer.module, "the producer")
            ]
            for func in _compute_reachable(ctx, producer):
                scanned.append(
                    (func.node, ctx.index.modules[func.module], func.qualname)
                )
            seen: set[str] = set()
            for body, module, where in scanned:
                mutated = mutated_cache.get(module.name)
                if mutated is None:
                    mutated = _mutated_globals(module)
                    mutated_cache[module.name] = mutated
                for impurity in _impurities(ctx, body, module, mutated):
                    via = "" if where == "the producer" else f" (via {where})"
                    message = (
                        f"cached producer {label!r} {impurity}{via}; the "
                        "value is not represented in its cache key, so the "
                        "first run's state poisons every later cache hit"
                    )
                    if message in seen:
                        continue
                    seen.add(message)
                    yield _diag(
                        producer.owner.path, producer.call, self.code, message
                    )


# ---------------------------------------------------------------------
# SIM014 — version-bump enforcement via the producers lock
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LockEntry:
    """One producer's pinned state in ``producers.lock``."""

    digest: str
    version: int


def load_producers_lock(path: Path) -> dict[str, LockEntry] | None:
    """Parse the lock file; None when absent or unreadable."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "producers" not in data:
        return None
    entries: dict[str, LockEntry] = {}
    raw = data["producers"]
    if not isinstance(raw, dict):
        return None
    for name, entry in raw.items():
        if (
            isinstance(entry, dict)
            and isinstance(entry.get("digest"), str)
            and isinstance(entry.get("version"), int)
        ):
            entries[name] = LockEntry(entry["digest"], entry["version"])
    return entries


def write_producers_lock(path: Path, entries: dict[str, LockEntry]) -> None:
    """Write the lock file (sorted, newline-terminated, diff-friendly)."""
    payload = {
        "schema": LOCK_SCHEMA_VERSION,
        "producers": {
            name: {"digest": entry.digest, "version": entry.version}
            for name, entry in sorted(entries.items())
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def producer_digest(ctx: ProjectContext, producer: Producer) -> str | None:
    """Normalized digest of the compute callable plus reachable code."""
    if producer.compute_node is None:
        return None
    nodes: list[ast.AST] = [producer.compute_node]
    nodes.extend(f.node for f in _compute_reachable(ctx, producer))
    return normalized_digest(*nodes)


def compute_lock_entries(
    ctx: ProjectContext,
) -> tuple[dict[str, LockEntry], list[str]]:
    """Current ``(digest, version)`` per producer, plus skip reasons."""
    entries: dict[str, LockEntry] = {}
    problems: list[str] = []
    for producer in find_producers(ctx):
        where = f"{producer.owner.path}:{producer.call.lineno}"
        if producer.name is None:
            problems.append(f"{where}: producer name is not a string constant")
            continue
        if producer.version is None:
            problems.append(
                f"{where}: version of {producer.name!r} is not a resolvable "
                "int constant"
            )
            continue
        digest = producer_digest(ctx, producer)
        if digest is None:
            problems.append(
                f"{where}: compute callable of {producer.name!r} is not "
                "statically resolvable"
            )
            continue
        existing = entries.get(producer.name)
        if existing is not None and existing.digest != digest:
            problems.append(
                f"{where}: duplicate producer name {producer.name!r} with "
                "diverging code"
            )
            continue
        entries[producer.name] = LockEntry(digest, producer.version)
    return entries, problems


@register_rule
class VersionBumpRule:
    """SIM014 — producer code changes require a ``version`` bump.

    The committed producer lock pins each producer's normalized AST
    digest (compute callable plus every statically-reachable project
    function) against its version.  Editing that code without bumping
    the version silently serves stale artifacts to everyone whose cache
    predates the edit.  ``repro-lint --update-lock`` refreshes the lock
    — the explicit acknowledgment for meaning-preserving refactors.
    """

    code = "SIM014"
    summary = "cached producer changed without a version bump (producers.lock)"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        lock_path = ctx.config.producers_lock_path
        if lock_path is None:
            return
        lock = load_producers_lock(lock_path)
        if lock is None:
            return  # opt-in: no committed lock, no enforcement
        for producer in find_producers(ctx):
            if producer.name is None or producer.version is None:
                continue
            digest = producer_digest(ctx, producer)
            if digest is None:
                continue
            entry = lock.get(producer.name)
            if entry is None:
                yield _diag(
                    producer.owner.path, producer.call, self.code,
                    f"producer {producer.name!r} is not in "
                    f"{lock_path.name}; run `repro-lint --update-lock`",
                )
            elif digest != entry.digest and producer.version == entry.version:
                yield _diag(
                    producer.owner.path, producer.call, self.code,
                    f"code reachable from producer {producer.name!r} changed "
                    f"but version stayed {producer.version}; bump the "
                    "version (stale cached artifacts would be replayed) or "
                    "run `repro-lint --update-lock` if the meaning is "
                    "unchanged",
                )
            elif digest != entry.digest or producer.version != entry.version:
                yield _diag(
                    producer.owner.path, producer.call, self.code,
                    f"{lock_path.name} entry for {producer.name!r} is stale; "
                    "run `repro-lint --update-lock`",
                )
