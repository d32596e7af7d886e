"""The SIM018-SIM021 concurrency rule family (the parallel boundary).

The serial ≡ sharded ≡ parallel bitwise guarantee rests on three
contracts the runtime cannot express in types: worker tasks own no
shared mutable state, attached shm/mmap segments are read-only on the
consumer side, and nothing fork-hostile crosses a task boundary except
the tiny picklable specs.  These rules model that boundary on the
phase-1 call graph:

========  ===========================================================
SIM018    mutable module/closure state mutated inside a parallel task
          and touched outside it — worker-side mutations are silently
          lost (fork) or racy (threads); per-process *memos* whose
          every access is keyed (``d[k]``/``.get``/``.pop``/
          ``.setdefault``) are the sanctioned exception
SIM019    write to an attached shm/mmap array reachable from a
          consumer entry point; taint starts at the configured
          ``attach_functions`` and flows through assignments,
          attribute/subscript projection, returns and call arguments
SIM020    scratch-buffer reuse without epoch/reset discipline: a
          pre-loop buffer painted with a constant stamp and equality-
          read in the same loop, with neither an in-loop un-paint nor
          a loop-varying (epoch) stamp
SIM021    fork-unsafe state crossing the boundary — open shm owner
          handles, live ``MetricsRegistry`` instances, mmap views —
          instead of the picklable ``.spec`` re-attached worker-side
========  ===========================================================

The boundary itself is located syntactically: calls to the configured
``parallel_maps`` entry points plus ``<pool>.submit(fn, ...)``.  Task
roots resolve through names, ``functools.partial`` wrappers and inline
lambdas/defs; from each root the task-side world is the call-graph
closure (``reachable_from``), with ``obs_modules`` excluded exactly as
in the cache-purity rule — observation is allowed on both sides.

SIM019/SIM021 deliberately treat ``.spec`` attribute access as a taint
*sink*: specs are the blessed picklable currency of the transport
layer, and "ship the spec, re-attach in the worker" is the fix both
messages prescribe.  What the static rules claim, the runtime verifies:
``REPRO_SANITIZE=shm`` (see :mod:`repro.runtime.sanitize`) freezes
every attached array and poisons released scratch, so a pattern these
rules missed still faults loudly in the sanitizer CI job.
"""

from __future__ import annotations

import ast
from typing import Iterator
from weakref import WeakKeyDictionary

from repro.lint.dataflow import assigned_names, free_names, own_nodes, walk_shallow
from repro.lint.diagnostics import Diagnostic
from repro.lint.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    dotted_name,
    tree_nodes,
)
from repro.lint.rules import ProjectContext, register_rule
from repro.lint.semantic import _MUTATING_METHODS, _diag, _mutated_globals

__all__ = [
    "AttachedWriteRule",
    "ForkUnsafeCaptureRule",
    "ScratchDisciplineRule",
    "SharedMutableStateRule",
]

#: dict methods that keep an access "keyed" for the memo exemption.
_KEYED_METHODS = frozenset({"get", "pop", "setdefault"})

#: ndarray methods that mutate the receiver in place.
_ARRAY_MUTATORS = frozenset(
    {"fill", "sort", "put", "partition", "resize", "itemset", "setfield",
     "setflags", "byteswap"}
)

#: Buffer allocators whose results count as reusable scratch.
_SCRATCH_ALLOCATORS = frozenset(
    {"numpy.zeros", "numpy.empty", "numpy.full", "numpy.zeros_like",
     "numpy.empty_like", "numpy.full_like"}
)


def _truthy_const(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (bool, int))
        and bool(node.value)
    )


def _falsy_const(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (bool, int))
        and not node.value
    )


def _chain_root(expr: ast.expr) -> tuple[str | None, bool]:
    """Root name of an attribute/subscript chain and whether ``.spec``
    appears along it (which clears attach taint)."""
    saw_spec = False
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            saw_spec = saw_spec or node.attr == "spec"
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id, saw_spec
        else:
            return None, saw_spec


def _keyed_only(module: ModuleInfo, name: str) -> bool:
    """True when every access to module-global ``name`` is keyed.

    Keyed means: subscript base (``d[k]`` load or store) or receiver of
    ``.get``/``.pop``/``.setdefault`` — the per-process memo shape the
    attach caches use, where racing processes recompute identical
    entries.  Iteration, ``len``, whole-value reads, rebinds and
    read-modify-write (``d[k] += 1``) all refuse the exemption.  The
    top-level statement that initially binds the name is excluded.
    """
    top_binds: set[int] = set()
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                top_binds.add(id(target))
    keyed_ids: set[int] = set()
    rmw_ids: set[int] = set()
    occurrences: list[ast.Name] = []
    for node in tree_nodes(module.tree):
        if isinstance(node, ast.Name) and node.id == name:
            occurrences.append(node)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            keyed_ids.add(id(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _KEYED_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            keyed_ids.add(id(node.func.value))
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == name
        ):
            rmw_ids.add(id(node.target.value))
    return all(
        id(occ) in top_binds or (id(occ) in keyed_ids and id(occ) not in rmw_ids)
        for occ in occurrences
    )


def _mutates_global(
    func: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> ast.AST | None:
    """First site where ``func`` mutates module-global ``name``."""
    declared_global = any(
        isinstance(node, ast.Global) and name in node.names
        for node in own_nodes(func)
    )
    for node in own_nodes(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                ):
                    return node
                if (
                    declared_global
                    and isinstance(target, ast.Name)
                    and target.id == name
                ):
                    return node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return node
    return None


def _captured_mutations(
    task: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> set[str]:
    """Free names of ``task`` that the task body mutates in place."""
    captured = free_names(task)
    declared: set[str] = set()
    mutated: set[str] = set()
    for node in ast.walk(task):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    root, _ = _chain_root(target)
                    if root is not None:
                        mutated.add(root)
                elif isinstance(target, ast.Name) and target.id in declared:
                    mutated.add(target.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in (_MUTATING_METHODS | _ARRAY_MUTATORS)
            and isinstance(node.func.value, ast.Name)
        ):
            mutated.add(node.func.value.id)
    return captured & mutated


class _FunctionFacts:
    """One walk's worth of reusable structure for a function body."""

    __slots__ = ("assign_pairs", "calls", "names", "returns")

    def __init__(self, func: FunctionInfo) -> None:
        #: ``(target, value)`` pairs that bind names: plain/annotated
        #: assignments, with-items and for-targets (iter -> element).
        self.assign_pairs: list[tuple[ast.expr, ast.expr]] = []
        self.calls: list[ast.Call] = []
        self.returns: list[ast.expr] = []
        #: Every Name occurring in the body (load or store), for cheap
        #: "does this function touch X at all" queries.
        names: set[str] = set()
        for node in own_nodes(func.node):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self.assign_pairs.append((target, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self.assign_pairs.append((node.target, node.value))
            elif isinstance(node, ast.NamedExpr):
                self.assign_pairs.append((node.target, node.value))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self.assign_pairs.append(
                            (item.optional_vars, item.context_expr)
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self.assign_pairs.append((node.target, node.iter))
            elif isinstance(node, ast.Call):
                self.calls.append(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self.returns.append(node.value)
        self.names = frozenset(names)


class _BoundarySite:
    """One syntactic parallel fan-out: a ``pmap``-family call or a
    pool ``.submit``."""

    __slots__ = ("call", "func", "kind", "module", "task_args")

    def __init__(
        self, func: FunctionInfo, module: ModuleInfo, call: ast.Call, kind: str
    ) -> None:
        self.func = func
        self.module = module
        self.call = call
        self.kind = kind  # "pmap" | "submit"
        #: Every expression shipped across the boundary.
        self.task_args: list[ast.expr] = list(call.args) + [
            kw.value for kw in call.keywords if kw.arg is not None
        ]


class _Scan:
    """Shared per-run precomputation for the concurrency rules."""

    def __init__(self, ctx: ProjectContext) -> None:
        self.facts: dict[str, _FunctionFacts] = {}
        self.sites: list[_BoundarySite] = []
        self.by_module: dict[str, list[FunctionInfo]] = {}
        maps = frozenset(ctx.config.parallel_maps)
        for func in ctx.index.functions.values():
            module = ctx.index.modules[func.module]
            facts = _FunctionFacts(func)
            self.facts[func.qualname] = facts
            self.by_module.setdefault(func.module, []).append(func)
            for call in facts.calls:
                chain = ctx.index.qualified_chain(call.func, module)
                if chain in maps:
                    self.sites.append(_BoundarySite(func, module, call, "pmap"))
                elif (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "submit"
                ):
                    self.sites.append(_BoundarySite(func, module, call, "submit"))


_SCANS: "WeakKeyDictionary[ProjectIndex, _Scan]" = WeakKeyDictionary()


def _scan(ctx: ProjectContext) -> _Scan:
    cached = _SCANS.get(ctx.index)
    if cached is None:
        cached = _Scan(ctx)
        _SCANS[ctx.index] = cached
    return cached


def _resolve_tasks(
    ctx: ProjectContext,
    site: _BoundarySite,
    expr: ast.expr,
    depth: int = 0,
) -> tuple[set[str], list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda]]:
    """Resolve a task-callable expression to indexed qualnames and/or
    inline lambda / local-def nodes."""
    if depth > 4:
        return set(), []
    if isinstance(expr, ast.Lambda):
        return set(), [expr]
    if isinstance(expr, ast.Call):
        chain = ctx.index.qualified_chain(expr.func, site.module) or ""
        if chain.rpartition(".")[2] == "partial" and expr.args:
            return _resolve_tasks(ctx, site, expr.args[0], depth + 1)
        return set(), []
    if isinstance(expr, ast.Name):
        for node in own_nodes(site.func.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == expr.id
            ):
                return set(), [node]
        for target, value in _scan(ctx).facts[site.func.qualname].assign_pairs:
            if (
                isinstance(target, ast.Name)
                and target.id == expr.id
                and value is not expr
            ):
                quals, inline = _resolve_tasks(ctx, site, value, depth + 1)
                if quals or inline:
                    return quals, inline
    chain = dotted_name(expr)
    if chain is not None:
        resolved = ctx.index.resolve_name(chain, site.module, site.func)
        if resolved is not None:
            qualname, kind = resolved
            if kind == "class":
                init = f"{qualname}.__init__"
                return ({init} if init in ctx.index.functions else set()), []
            return {qualname}, []
    return set(), []


def _task_world(ctx: ProjectContext, roots: set[str]) -> set[str]:
    """Call-graph closure of the task roots, observation excluded."""
    obs = tuple(ctx.config.obs_modules)
    world: set[str] = set()
    for root in roots:
        if root in ctx.index.functions:
            world.add(root)
            world |= ctx.index.reachable_from(root)
    return {
        qual
        for qual in world
        if qual in ctx.index.functions
        and not any(
            ctx.index.functions[qual].module == mod
            or ctx.index.functions[qual].module.startswith(mod + ".")
            for mod in obs
        )
    }


# -- SIM018 -----------------------------------------------------------


@register_rule
class SharedMutableStateRule:
    """Mutable state shared across the parallel task boundary."""

    code = "SIM018"
    summary = "mutable module/closure state mutated inside a parallel task"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        scan = _scan(ctx)
        mutated_cache: dict[str, frozenset[str]] = {}
        keyed_cache: dict[tuple[str, str], bool] = {}
        for site in scan.sites:
            task_expr = site.call.args[0] if site.call.args else None
            if task_expr is None:
                continue
            roots, inline = _resolve_tasks(ctx, site, task_expr)
            for task_node in inline:
                for name in sorted(_captured_mutations(task_node)):
                    yield _diag(
                        site.func.path,
                        task_node,
                        self.code,
                        f"parallel task mutates captured {name!r}; worker-side "
                        "mutations never reach the coordinator — return the "
                        "value from the task instead",
                    )
            world = _task_world(ctx, roots)
            seen: set[str] = set()
            for qual in sorted(world):
                func = ctx.index.functions[qual]
                module = ctx.index.modules[func.module]
                mutated = mutated_cache.get(func.module)
                if mutated is None:
                    mutated = _mutated_globals(module)
                    mutated_cache[func.module] = mutated
                for name in sorted(mutated):
                    if (
                        name in seen
                        or name not in scan.facts[qual].names
                        or _mutates_global(func.node, name) is None
                    ):
                        continue
                    keyed = keyed_cache.get((func.module, name))
                    if keyed is None:
                        keyed = _keyed_only(module, name)
                        keyed_cache[(func.module, name)] = keyed
                    if keyed:
                        continue
                    outside = any(
                        other.qualname not in world
                        and name in scan.facts[other.qualname].names
                        for other in scan.by_module.get(func.module, ())
                    )
                    if not outside:
                        continue
                    seen.add(name)
                    yield _diag(
                        site.func.path,
                        site.call,
                        self.code,
                        f"parallel task {qual}() mutates module state "
                        f"{name!r} that is also used outside the task — "
                        "worker-side mutations are lost across the fork; "
                        "return results, or make every access keyed "
                        "(d[k]/.get/.pop/.setdefault) if it is a per-process "
                        "memo",
                    )


# -- SIM019 -----------------------------------------------------------


class _AttachTaint:
    """Interprocedural attach-view taint, computed to a fixed point."""

    def __init__(self, ctx: ProjectContext, scan: _Scan) -> None:
        self.ctx = ctx
        self.scan = scan
        self.attach = frozenset(ctx.config.attach_functions)
        #: Functions whose return value carries an attached view.
        self.returners: set[str] = set()
        #: Parameter names tainted by call sites, per callee qualname.
        self.params: dict[str, set[str]] = {}
        self.locals: dict[str, set[str]] = {}
        self._solve()

    def _attached_call(
        self, call: ast.Call, module: ModuleInfo, func: FunctionInfo
    ) -> bool:
        chain = self.ctx.index.qualified_chain(call.func, module)
        if chain in self.attach:
            return True
        resolved = self.ctx.index.resolve_call(call, module, func)
        if resolved is not None and resolved[0] in (self.attach | self.returners):
            return True
        return False

    def _value_attached(
        self,
        expr: ast.expr,
        tainted: set[str],
        module: ModuleInfo,
        func: FunctionInfo,
    ) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Attribute):
            if expr.attr == "spec":
                return False
            return self._value_attached(expr.value, tainted, module, func)
        if isinstance(expr, (ast.Subscript, ast.Starred)):
            return self._value_attached(expr.value, tainted, module, func)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return any(
                self._value_attached(e, tainted, module, func) for e in expr.elts
            )
        if isinstance(expr, ast.IfExp):
            return self._value_attached(
                expr.body, tainted, module, func
            ) or self._value_attached(expr.orelse, tainted, module, func)
        if isinstance(expr, ast.NamedExpr):
            return self._value_attached(expr.value, tainted, module, func)
        if isinstance(expr, ast.Call):
            if self._attached_call(expr, module, func):
                return True
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "enter_context"
                and expr.args
            ):
                return self._value_attached(expr.args[0], tainted, module, func)
            return False
        return False

    def _function_taint(self, func: FunctionInfo) -> set[str]:
        """Local names of ``func`` holding attached views (fixed point)."""
        module = self.ctx.index.modules[func.module]
        facts = self.scan.facts[func.qualname]
        tainted = set(self.params.get(func.qualname, ()))
        changed = True
        while changed:
            changed = False
            for target, value in facts.assign_pairs:
                if self._value_attached(value, tainted, module, func):
                    fresh = assigned_names(target) - tainted
                    if fresh:
                        tainted |= fresh
                        changed = True
        return tainted

    def _callee_params(
        self, call: ast.Call, module: ModuleInfo, func: FunctionInfo
    ) -> tuple[str, list[str], int] | None:
        """``(qualname, positional param names, self offset)`` of an
        indexed call target."""
        resolved = self.ctx.index.resolve_call(call, module, func)
        if resolved is None:
            return None
        qualname, kind = resolved
        if kind == "class":
            qualname = f"{qualname}.__init__"
        info = self.ctx.index.functions.get(qualname)
        if info is None:
            return None
        args = info.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args)]
        offset = 1 if (kind == "class" or info.class_name is not None) else 0
        return qualname, names, offset

    def _solve(self) -> None:
        index = self.ctx.index
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for func in index.functions.values():
                module = index.modules[func.module]
                facts = self.scan.facts[func.qualname]
                tainted = self._function_taint(func)
                self.locals[func.qualname] = tainted
                if func.qualname not in self.returners and any(
                    self._value_attached(value, tainted, module, func)
                    for value in facts.returns
                ):
                    self.returners.add(func.qualname)
                    changed = True
                for call in facts.calls:
                    hot_args = [
                        (i, arg)
                        for i, arg in enumerate(call.args)
                        if self._value_attached(arg, tainted, module, func)
                    ]
                    hot_kwargs = [
                        kw.arg
                        for kw in call.keywords
                        if kw.arg is not None
                        and self._value_attached(kw.value, tainted, module, func)
                    ]
                    if not hot_args and not hot_kwargs:
                        continue
                    target = self._callee_params(call, module, func)
                    if target is None:
                        continue
                    qualname, names, offset = target
                    params = self.params.setdefault(qualname, set())
                    for i, _arg in hot_args:
                        slot = offset + i
                        if slot < len(names) and names[slot] not in params:
                            params.add(names[slot])
                            changed = True
                    for kwname in hot_kwargs:
                        if kwname in names and kwname not in params:
                            params.add(kwname)
                            changed = True


@register_rule
class AttachedWriteRule:
    """Writes to attached shm/mmap views on the consumer side."""

    code = "SIM019"
    summary = "write to an attached shm/mmap array (consumers are read-only)"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        scan = _scan(ctx)
        taint = _AttachTaint(ctx, scan)
        for func in ctx.index.functions.values():
            tainted = taint.locals.get(func.qualname, set())
            if not tainted:
                continue
            module = ctx.index.modules[func.module]
            yield from self._check_writes(ctx, func, module, tainted)

    def _check_writes(
        self,
        ctx: ProjectContext,
        func: FunctionInfo,
        module: ModuleInfo,
        tainted: set[str],
    ) -> Iterator[Diagnostic]:
        def is_tainted_store(target: ast.expr) -> str | None:
            """The offending chain text when a store hits a view."""
            if isinstance(target, ast.Subscript):
                root, spec = _chain_root(target)
                if root in tainted and not spec:
                    return ast.unparse(target)
            elif isinstance(target, ast.Attribute):
                root, spec = _chain_root(target.value)
                if root in tainted and not spec:
                    return ast.unparse(target)
            return None

        for node in own_nodes(func.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    offender = is_tainted_store(target)
                    if offender is None and (
                        isinstance(node, ast.AugAssign)
                        and isinstance(target, ast.Name)
                        and target.id in tainted
                    ):
                        offender = target.id
                    if offender is not None:
                        yield _diag(
                            func.path,
                            node,
                            self.code,
                            f"write to attached shm/mmap view {offender!r} — "
                            "consumers are read-only; copy first "
                            "(np.array(...)) or do this on the owner before "
                            "publishing",
                        )
            elif isinstance(node, ast.Call):
                chain = ctx.index.qualified_chain(node.func, module)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ARRAY_MUTATORS | _MUTATING_METHODS
                ):
                    root, spec = _chain_root(node.func.value)
                    if root in tainted and not spec:
                        yield _diag(
                            func.path,
                            node,
                            self.code,
                            f"in-place .{node.func.attr}() on attached "
                            f"shm/mmap view {root!r} — consumers are "
                            "read-only; copy first (np.array(...))",
                        )
                elif chain == "numpy.copyto" and node.args:
                    root, spec = _chain_root(node.args[0])
                    if root in tainted and not spec:
                        yield _diag(
                            func.path,
                            node,
                            self.code,
                            f"np.copyto into attached shm/mmap view {root!r} "
                            "— consumers are read-only",
                        )
                for kw in node.keywords:
                    if kw.arg == "out":
                        root, spec = _chain_root(kw.value)
                        if root in tainted and not spec:
                            yield _diag(
                                func.path,
                                node,
                                self.code,
                                f"out= targets attached shm/mmap view "
                                f"{root!r} — consumers are read-only",
                            )


# -- SIM020 -----------------------------------------------------------


@register_rule
class ScratchDisciplineRule:
    """Constant-stamp paint buffers reused across loop iterations."""

    code = "SIM020"
    summary = "scratch reuse without epoch/reset discipline"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        scan = _scan(ctx)
        for func in ctx.index.functions.values():
            # Cheap prefilter off the shared scan: most functions bind
            # no scratch buffer, so skip them without re-walking.
            facts = scan.facts[func.qualname]
            module = None
            allocs: dict[str, ast.AST] = {}
            for target, value in facts.assign_pairs:
                if not (
                    isinstance(target, ast.Name) and isinstance(value, ast.Call)
                ):
                    continue
                if module is None:
                    module = ctx.index.modules[func.module]
                chain = ctx.index.qualified_chain(value.func, module) or ""
                if (
                    chain in _SCRATCH_ALLOCATORS
                    or chain.rpartition(".")[2] == "scratch_alloc"
                ):
                    allocs[target.id] = value
            if allocs:
                yield from self._check_function(func, allocs)

    def _check_function(
        self, func: FunctionInfo, allocs: dict[str, ast.AST]
    ) -> Iterator[Diagnostic]:
        for loop in own_nodes(func.node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            inside = {id(n) for n in walk_shallow(loop)}
            candidates = {
                name: site
                for name, site in allocs.items()
                if id(site) not in inside
                and getattr(site, "lineno", 0) < loop.lineno
            }
            if not candidates:
                continue
            yield from self._check_loop(func.path, loop, candidates)

    def _check_loop(
        self, path: str, loop: ast.For | ast.While, buffers: dict[str, ast.AST]
    ) -> Iterator[Diagnostic]:
        varying: set[str] = set()
        if isinstance(loop, ast.For):
            varying |= assigned_names(loop.target)
        body_nodes = [n for n in walk_shallow(loop) if n is not loop]
        for node in body_nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    varying |= assigned_names(target)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                varying.add(node.target.id)
        for name in buffers:
            const_paint: ast.AST | None = None
            varying_stamp = False
            reset = False
            eq_read = False
            for node in body_nodes:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == name
                        ):
                            continue
                        if isinstance(target.slice, ast.Slice):
                            if _falsy_const(node.value):
                                reset = True
                        elif _falsy_const(node.value):
                            reset = True  # in-loop un-paint
                        elif _truthy_const(node.value):
                            const_paint = const_paint or node
                        elif (
                            isinstance(node.value, ast.Name)
                            and node.value.id in varying
                        ):
                            varying_stamp = True
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fill"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                    and node.args
                    and _falsy_const(node.args[0])
                ):
                    reset = True
                elif isinstance(node, ast.Compare) and any(
                    isinstance(op, ast.Eq) for op in node.ops
                ):
                    for side in (node.left, *node.comparators):
                        if (
                            isinstance(side, ast.Subscript)
                            and isinstance(side.value, ast.Name)
                            and side.value.id == name
                        ):
                            eq_read = True
            if const_paint is not None and eq_read and not (reset or varying_stamp):
                yield Diagnostic(
                    path=path,
                    line=getattr(const_paint, "lineno", 1),
                    col=getattr(const_paint, "col_offset", 0),
                    code=self.code,
                    message=(
                        f"scratch buffer {name!r} is painted with a constant "
                        "stamp and equality-read across loop iterations "
                        "without an in-loop reset — stale marks from earlier "
                        "iterations survive; un-paint it each iteration or "
                        "stamp with a per-iteration epoch"
                    ),
                )


# -- SIM021 -----------------------------------------------------------


@register_rule
class ForkUnsafeCaptureRule:
    """Fork-unsafe state shipped across a parallel task boundary."""

    code = "SIM021"
    summary = "fork-unsafe state crosses the parallel boundary"

    def check_project(self, ctx: ProjectContext) -> Iterator[Diagnostic]:
        scan = _scan(ctx)
        factories = frozenset(ctx.config.shm_factories)
        attach = frozenset(ctx.config.attach_functions)
        for site in scan.sites:
            unsafe = self._unsafe_names(ctx, site, factories, attach)
            reported: set[int] = set()
            for expr in site.task_args:
                desc = self._value_unsafe(ctx, site, expr, unsafe, factories, attach)
                if desc is not None and id(expr) not in reported:
                    reported.add(id(expr))
                    yield _diag(
                        site.func.path,
                        expr,
                        self.code,
                        f"{desc} crosses the parallel boundary here — workers "
                        "cannot inherit it safely; ship the picklable .spec "
                        "and re-attach in the worker",
                    )
                if isinstance(expr, ast.Lambda):
                    for name in sorted(free_names(expr) & unsafe.keys()):
                        yield _diag(
                            site.func.path,
                            expr,
                            self.code,
                            f"task lambda captures {name!r} ({unsafe[name]}) "
                            "— ship the picklable .spec and re-attach in the "
                            "worker",
                        )
                elif isinstance(expr, ast.Name):
                    for node in own_nodes(site.func.node):
                        if (
                            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and node.name == expr.id
                        ):
                            for name in sorted(free_names(node) & unsafe.keys()):
                                yield _diag(
                                    site.func.path,
                                    node,
                                    self.code,
                                    f"task {node.name}() captures {name!r} "
                                    f"({unsafe[name]}) — ship the picklable "
                                    ".spec and re-attach in the worker",
                                )

    def _source_desc(
        self,
        ctx: ProjectContext,
        site: _BoundarySite,
        call: ast.Call,
        factories: frozenset[str],
        attach: frozenset[str],
    ) -> str | None:
        chain = ctx.index.qualified_chain(call.func, site.module) or ""
        resolved = ctx.index.resolve_call(call, site.module, site.func)
        qualname = resolved[0] if resolved is not None else ""
        if chain in factories or qualname in factories:
            return "an open shared-memory owner handle"
        if chain in attach or qualname in attach:
            return "an attached shm view"
        if chain == "repro.obs.metrics" or chain.endswith("MetricsRegistry"):
            return "a live MetricsRegistry"
        if chain == "numpy.load" and any(
            kw.arg == "mmap_mode"
            and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
            for kw in call.keywords
        ):
            return "an mmap-backed array view"
        return None

    def _value_unsafe(
        self,
        ctx: ProjectContext,
        site: _BoundarySite,
        expr: ast.expr,
        unsafe: dict[str, str],
        factories: frozenset[str],
        attach: frozenset[str],
        depth: int = 0,
    ) -> str | None:
        if depth > 6:
            return None
        if isinstance(expr, ast.Name):
            return unsafe.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if expr.attr == "spec":
                return None
            return self._value_unsafe(
                ctx, site, expr.value, unsafe, factories, attach, depth + 1
            )
        if isinstance(expr, (ast.Subscript, ast.Starred)):
            return self._value_unsafe(
                ctx, site, expr.value, unsafe, factories, attach, depth + 1
            )
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                desc = self._value_unsafe(
                    ctx, site, element, unsafe, factories, attach, depth + 1
                )
                if desc is not None:
                    return desc
            return None
        if isinstance(expr, ast.Call):
            desc = self._source_desc(ctx, site, expr, factories, attach)
            if desc is not None:
                return desc
            chain = ctx.index.qualified_chain(expr.func, site.module) or ""
            is_wrapper = chain.rpartition(".")[2] == "partial" or (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "enter_context"
            )
            if is_wrapper:
                for sub in (*expr.args, *(kw.value for kw in expr.keywords)):
                    desc = self._value_unsafe(
                        ctx, site, sub, unsafe, factories, attach, depth + 1
                    )
                    if desc is not None:
                        return desc
            return None
        return None

    def _unsafe_names(
        self,
        ctx: ProjectContext,
        site: _BoundarySite,
        factories: frozenset[str],
        attach: frozenset[str],
    ) -> dict[str, str]:
        """Locals of the boundary's enclosing function that hold
        fork-unsafe state (fixed point over its assignments)."""
        facts = _scan(ctx).facts[site.func.qualname]
        unsafe: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for target, value in facts.assign_pairs:
                desc = self._value_unsafe(
                    ctx, site, value, unsafe, factories, attach
                )
                if desc is None:
                    continue
                for name in assigned_names(target):
                    if name not in unsafe:
                        unsafe[name] = desc
                        changed = True
        return unsafe
