"""Phase 1 of simlint v2: the project-wide symbol table and call graph.

Per-file AST walking (simlint v1) cannot check any contract that spans
a function boundary — exactly where the parallel runtime and artifact
cache put their sharp edges.  :func:`build_index` parses every target
file once and produces a :class:`ProjectIndex`:

* **modules** — dotted name, import-alias map, top-level defs;
* **functions** — every module-level function and method, addressable
  by qualified name (``repro.runtime.parallel.pmap``);
* **call graph** — per-function resolved call sites, restricted to
  names the resolver can prove refer to an indexed project function
  (or class constructor).  Unresolvable dynamic calls are dropped, so
  every edge in the graph is trustworthy.

Resolution is purely syntactic: nothing is imported or executed, so
the index can be built for fixture trees that reference modules which
do not exist on disk.  The index also offers a content-addressed disk
cache (:func:`load_or_build_index`) so CI re-runs skip the parse when
no source changed, and :func:`normalized_digest` — a line/column/
docstring-insensitive AST fingerprint stable across CPython minor
versions — which powers the SIM014 producer lock.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence
from weakref import WeakKeyDictionary

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
    "dotted_name",
    "import_aliases",
    "load_or_build_index",
    "module_name_for",
    "normalized_digest",
    "resolve_alias",
    "source_tree_digest",
    "tree_nodes",
]

def dotted_name(node: ast.expr) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c`` (None for anything else)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# One parsed tree is walked end to end by many consumers: several
# per-file rules, the alias scan below, and the semantic rules.
# ast.walk re-derives the same node sequence each time and its
# iter_child_nodes traffic dominates whole-repo lint time, so the flat
# BFS order is memoized per tree.  WeakKeyDictionary entries die with
# their tree, so repeated in-process runs do not leak.
_TREE_NODES_CACHE: "WeakKeyDictionary[ast.AST, tuple[ast.AST, ...]]" = (
    WeakKeyDictionary()
)

_ALIAS_CACHE: "WeakKeyDictionary[ast.AST, dict[str, dict[str, str]]]" = (
    WeakKeyDictionary()
)


def tree_nodes(tree: ast.AST) -> tuple[ast.AST, ...]:
    """Every node of ``tree`` in :func:`ast.walk` (BFS) order, memoized."""
    cached = _TREE_NODES_CACHE.get(tree)
    if cached is None:
        cached = tuple(ast.walk(tree))
        _TREE_NODES_CACHE[tree] = cached
    return cached


def import_aliases(tree: ast.Module, *, package: str = "") -> dict[str, str]:
    """Map local names to the fully-qualified object they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter`` -> ``{"perf_counter": "time.perf_counter"}``.
    Relative imports resolve against ``package`` (the importing module's
    package, empty for top-level modules); star imports are
    unresolvable and therefore skipped.  Cached per ``(tree, package)``
    — the same tree is scanned by the index build and by several
    per-file rules.
    """
    per_tree = _ALIAS_CACHE.setdefault(tree, {})
    cached = per_tree.get(package)
    if cached is not None:
        return cached
    aliases: dict[str, str] = {}
    for node in tree_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a`` locally.
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                hops = package.split(".") if package else []
                if node.level - 1 <= len(hops):
                    kept = hops[: len(hops) - (node.level - 1)]
                    base = ".".join(kept + ([node.module] if node.module else []))
                else:
                    continue  # relative import escaping the known tree
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}"
    per_tree[package] = aliases
    return aliases


def resolve_alias(chain: str, aliases: dict[str, str]) -> str:
    """Substitute the chain's root through the import-alias map."""
    root, _, rest = chain.partition(".")
    full = aliases.get(root, root)
    return f"{full}.{rest}" if rest else full


def module_name_for(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` chain.

    Walks up from the file while each parent directory is a package, so
    ``src/repro/runtime/shm.py`` -> ``repro.runtime.shm`` regardless of
    the directory lint was invoked from, and fixture packages in tmp
    dirs get proper package-qualified names.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else path.stem


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at a location.

    ``kind`` is ``"function"`` for plain calls and ``"class"`` when the
    callee is a class constructor (the qualname then names the class).
    """

    caller: str
    callee: str
    kind: str
    path: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One indexed module-level function or method."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_public(self) -> bool:
        return not self.node.name.startswith("_")


@dataclass
class ClassInfo:
    """One indexed class with its method table."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: name, tree, aliases, top-level bindings."""

    name: str
    path: str
    tree: ast.Module
    aliases: dict[str, str]
    #: names bound at module level to a def/class in this module.
    local_defs: dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = <int literal>`` constants (SIM014 versions).
    int_constants: dict[str, int] = field(default_factory=dict)


class ProjectIndex:
    """The phase-1 output: modules, functions, classes, call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self.build_seconds: float = 0.0
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._reverse: dict[str, set[str]] | None = None

    # -- construction -------------------------------------------------

    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{info.name}.{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=info.name, path=info.path, node=stmt
                )
                info.local_defs[stmt.name] = qualname
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{info.name}.{stmt.name}"
                cls = ClassInfo(
                    qualname=cls_qual, module=info.name, path=info.path, node=stmt
                )
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{cls_qual}.{sub.name}"
                        method = FunctionInfo(
                            qualname=method_qual, module=info.name,
                            path=info.path, node=sub, class_name=stmt.name,
                        )
                        cls.methods[sub.name] = method
                        self.functions[method_qual] = method
                self.classes[cls_qual] = cls
                info.local_defs[stmt.name] = cls_qual
            elif (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
                and not isinstance(stmt.value.value, bool)
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.int_constants[target.id] = stmt.value.value

    def link_calls(self) -> None:
        """Phase-1b: resolve every call site in every indexed function."""
        for func in self.functions.values():
            sites: list[CallSite] = []
            module = self.modules[func.module]
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = self.resolve_call(node, module, func)
                if resolved is None:
                    continue
                callee, kind = resolved
                sites.append(
                    CallSite(
                        caller=func.qualname, callee=callee, kind=kind,
                        path=func.path, line=node.lineno, col=node.col_offset,
                    )
                )
            self.calls[func.qualname] = sites
        self._ancestor_cache.clear()
        self._reverse = None

    # -- resolution ---------------------------------------------------

    def resolve_name(
        self, chain: str, module: ModuleInfo, func: FunctionInfo | None = None
    ) -> tuple[str, str] | None:
        """Resolve a dotted name to ``(qualname, kind)`` within the project.

        ``kind`` is ``"function"`` or ``"class"``.  ``self.method``/
        ``cls.method`` chains resolve through the enclosing class when
        ``func`` is a method.  Returns None for anything that cannot be
        proven to name an indexed definition.
        """
        root, _, rest = chain.partition(".")
        if func is not None and func.class_name and root in ("self", "cls") and rest:
            cls = self.classes.get(f"{func.module}.{func.class_name}")
            method_name = rest.split(".")[0]
            if cls is not None and method_name in cls.methods:
                return cls.methods[method_name].qualname, "function"
            return None
        # Local defs shadow imports only if not re-imported; imports win
        # when both exist because Python binds whichever ran last and
        # the repo convention is imports-at-top, defs-after.
        candidates: list[str] = []
        if root in module.aliases:
            candidates.append(resolve_alias(chain, module.aliases))
        if root in module.local_defs:
            suffix = f".{rest}" if rest else ""
            candidates.append(f"{module.local_defs[root]}{suffix}")
        for candidate in candidates:
            if candidate in self.functions:
                return candidate, "function"
            if candidate in self.classes:
                return candidate, "class"
            # ``module.attr`` where the alias maps to a module we indexed.
            head, _, tail = candidate.rpartition(".")
            if tail and head in self.modules:
                target = self.modules[head].local_defs.get(tail)
                if target in self.functions:
                    return target, "function"
                if target in self.classes:
                    return target, "class"
        return None

    def resolve_call(
        self, node: ast.Call, module: ModuleInfo, func: FunctionInfo | None = None
    ) -> tuple[str, str] | None:
        """Resolve a call expression's target (see :meth:`resolve_name`)."""
        chain = dotted_name(node.func)
        if chain is None:
            return None
        return self.resolve_name(chain, module, func)

    def qualified_chain(
        self, node: ast.expr, module: ModuleInfo
    ) -> str | None:
        """The import-resolved dotted chain of an expression, if any.

        Unlike :meth:`resolve_name` this does not require the target to
        be indexed — it answers "what external name does this refer
        to?" (``np.random.default_rng`` -> ``numpy.random.default_rng``).
        """
        chain = dotted_name(node)
        if chain is None:
            return None
        return resolve_alias(chain, module.aliases)

    # -- graph queries ------------------------------------------------

    def callees(self, qualname: str) -> Iterator[CallSite]:
        """Direct resolved call sites of one function."""
        yield from self.calls.get(qualname, ())

    def reachable_from(self, qualname: str) -> frozenset[str]:
        """Function qualnames transitively reachable from ``qualname``.

        Class-constructor edges continue through the class's
        ``__init__`` plus every method reachable from it via ``self.x()``.
        """
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self.calls.get(current, ()):
                if site.kind == "class":
                    init = f"{site.callee}.__init__"
                    if init in self.functions and init not in seen:
                        stack.append(init)
                elif site.callee not in seen:
                    stack.append(site.callee)
        seen.discard(qualname)
        return frozenset(seen)

    def ancestors(self, qualname: str) -> frozenset[str]:
        """Functions from which ``qualname`` is reachable (itself included)."""
        cached = self._ancestor_cache.get(qualname)
        if cached is not None:
            return cached
        if self._reverse is None:
            reverse: dict[str, set[str]] = {}
            for caller, sites in self.calls.items():
                for site in sites:
                    callee = (
                        f"{site.callee}.__init__" if site.kind == "class" else site.callee
                    )
                    reverse.setdefault(callee, set()).add(caller)
            self._reverse = reverse
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._reverse.get(current, ()))
        result = frozenset(seen)
        self._ancestor_cache[qualname] = result
        return result


def build_index(
    parsed: Sequence[tuple[Path, ast.Module]],
) -> ProjectIndex:
    """Build the project index over pre-parsed ``(path, tree)`` pairs."""
    start = time.perf_counter()  # simlint: ignore[SIM002] linter self-timing, not simulation output
    index = ProjectIndex()
    for path, tree in parsed:
        name = module_name_for(path)
        if name in index.modules:
            # Two files mapping to one module name (e.g. duplicated
            # fixture stems outside packages): keep the first, which
            # matches Python's own import behavior for sys.path order.
            continue
        package = name.rpartition(".")[0]
        info = ModuleInfo(
            name=name,
            path=str(path),
            tree=tree,
            aliases=import_aliases(tree, package=package),
        )
        index.add_module(info)
    index.link_calls()
    index.build_seconds = time.perf_counter() - start  # simlint: ignore[SIM002] linter self-timing, not simulation output
    return index


# -- normalized AST digests (SIM014) ----------------------------------


def _normalize(node: object, out: list[str]) -> None:
    """Serialize an AST node insensitively to position and docstrings.

    Fields that are ``None``/empty are skipped entirely, which keeps
    the rendering stable when a newer CPython adds fields (3.12's
    ``type_params``) that older versions lack.
    """
    if isinstance(node, ast.AST):
        out.append(type(node).__name__)
        out.append("(")
        for name in node._fields:
            value = getattr(node, name, None)
            if value is None or (isinstance(value, list) and not value):
                continue
            out.append(f"{name}=")
            _normalize(value, out)
            out.append(",")
        out.append(")")
    elif isinstance(node, list):
        out.append("[")
        for item in node:
            _normalize(item, out)
            out.append(",")
        out.append("]")
    else:
        out.append(repr(node))


def _strip_docstring(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> ast.AST:
    if isinstance(node, ast.Lambda):
        return node
    body = node.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        clone = ast.FunctionDef if isinstance(node, ast.FunctionDef) else ast.AsyncFunctionDef
        return clone(
            name=node.name, args=node.args, body=body[1:] or [ast.Pass()],
            decorator_list=node.decorator_list, returns=node.returns,
        )
    return node


def normalized_digest(*nodes: ast.AST) -> str:
    """Stable hex fingerprint of one or more function/lambda ASTs."""
    parts: list[str] = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            node = _strip_docstring(node)
        _normalize(node, parts)
        parts.append(";")
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:32]


# -- content-addressed index cache ------------------------------------

# The schema participates in the cache key, so pickles from older
# builds simply miss instead of deserializing a stale shape.  Bump it
# when ModuleInfo or ProjectIndex gains a field a rule reads; a dropped
# field needs no bump (an old pickle merely carries an unread extra).
_INDEX_CACHE_SCHEMA = 2


def source_tree_digest(files: Sequence[Path]) -> str:
    """Digest of the target set: file names plus exact byte contents."""
    acc = hashlib.sha256(f"simlint-index-{_INDEX_CACHE_SCHEMA}".encode())
    for path in sorted(files):
        acc.update(str(path).encode())
        acc.update(b"\x00")
        try:
            acc.update(path.read_bytes())
        except OSError:
            acc.update(b"<unreadable>")
        acc.update(b"\x01")
    return acc.hexdigest()[:32]


def load_or_build_index(
    parsed: Sequence[tuple[Path, ast.Module]],
    cache_dir: Path | None,
) -> ProjectIndex:
    """:func:`build_index` behind a content-addressed pickle cache.

    The cache key covers every target file's bytes, so any edit misses;
    corrupt or version-skewed entries fall through to a rebuild.  With
    ``cache_dir=None`` this is exactly :func:`build_index`.
    """
    if cache_dir is None:
        return build_index(parsed)
    digest = source_tree_digest([path for path, _ in parsed])
    entry = Path(cache_dir) / f"index-{digest}.pkl"
    if entry.is_file():
        try:
            with entry.open("rb") as handle:
                cached = pickle.load(handle)
            if isinstance(cached, ProjectIndex):
                return cached
        except (pickle.UnpicklingError, EOFError, AttributeError, OSError):
            pass  # fall through to rebuild and rewrite
    index = build_index(parsed)
    entry.parent.mkdir(parents=True, exist_ok=True)
    temp = entry.with_name(entry.name + ".tmp")
    try:
        with temp.open("wb") as handle:
            pickle.dump(index, handle, protocol=pickle.HIGHEST_PROTOCOL)
        temp.replace(entry)
    except OSError:
        pass  # cache is best-effort; the build already succeeded
    return index
