"""Phase 2 of simlint v2: intraprocedural dataflow primitives.

The SIM010-SIM013 rules all reduce to a handful of questions about one
function body: which locals hold RNG generators, which names a closure
captures, whether a resource escapes to the caller, and whether its
cleanup is guaranteed on every path.  Those primitives live here, rule
policy lives in :mod:`repro.lint.semantic`.

Everything is deliberately conservative: taint only propagates through
assignments the analysis fully understands, and escape analysis says
"escapes" whenever a value flows anywhere it cannot follow.  A
conservative answer can suppress a true finding, never invent a false
one — the right trade for a CI gate.
"""

from __future__ import annotations

import ast
from typing import Iterator
from weakref import WeakKeyDictionary

from repro.lint.index import dotted_name, resolve_alias

__all__ = [
    "cleanup_guaranteed",
    "escapes",
    "free_names",
    "own_nodes",
    "rng_tainted_names",
]

#: Annotations that mark a parameter as carrying a live generator.
_GENERATOR_ANNOTATIONS = frozenset(
    {
        "np.random.Generator",
        "numpy.random.Generator",
        "Generator",
    }
)

#: Callables whose result is a live generator (fully-qualified).
_RNG_PRODUCERS = frozenset(
    {
        "repro.utils.rng.make_rng",
        "repro.utils.rng.spawn",
        "repro.utils.rng.derive",
        "numpy.random.default_rng",
    }
)

#: Bare names treated as RNG producers when import resolution cannot
#: see their origin (the repo imports them unqualified everywhere).
_RNG_PRODUCER_NAMES = frozenset({"make_rng", "spawn", "derive", "default_rng"})


#: Materialized body walks, keyed weakly by the function node.  Every
#: rule family re-asks the same "which nodes are my own" question about
#: the same functions; the repeated ``iter_child_nodes`` traversals
#: dominated whole-repo lint time before this memo.  Entries die with
#: their tree, so repeated in-process runs cannot accumulate.
_OWN_NODES_CACHE: "WeakKeyDictionary[ast.AST, tuple[ast.AST, ...]]" = (
    WeakKeyDictionary()
)


def _walk_own(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> Iterator[ast.AST]:
    stack: list[ast.AST] = (
        [func.body] if isinstance(func.body, ast.expr) else list(func.body)  # type: ignore[list-item]
    )
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def own_nodes(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> Iterator[ast.AST]:
    """Walk a function's own body without descending into nested defs."""
    cached = _OWN_NODES_CACHE.get(func)
    if cached is None:
        cached = tuple(_walk_own(func))
        _OWN_NODES_CACHE[func] = cached
    return iter(cached)


def _assigned_names(target: ast.expr) -> set[str]:
    """Names bound by an assignment target (unpacking included)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names |= _assigned_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _assigned_names(target.value)
    return set()


def _is_generator_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
    else:
        chain = dotted_name(annotation)
        text = chain if chain is not None else ""
    return text in _GENERATOR_ANNOTATIONS or text.endswith(".Generator")


def rng_tainted_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    aliases: dict[str, str],
) -> set[str]:
    """Locals of ``func`` that hold a live RNG generator (or list of them).

    Seeds are *not* tainted — an integer seed is exactly what a worker
    closure is supposed to capture and re-derive from.  Taint starts at
    generator-annotated or rng-named parameters and at calls to the
    blessed constructors, then propagates through simple assignments to
    a fixed point.
    """
    tainted: set[str] = set()
    params = (
        func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        + ([func.args.vararg] if func.args.vararg else [])
        + ([func.args.kwarg] if func.args.kwarg else [])
    )
    for param in params:
        if param.arg in ("rng", "rngs", "_rng", "_rngs") or _is_generator_annotation(
            param.annotation
        ):
            tainted.add(param.arg)

    assignments: list[tuple[set[str], ast.expr]] = []
    for node in own_nodes(func):
        if isinstance(node, ast.Assign):
            targets: set[str] = set()
            for target in node.targets:
                targets |= _assigned_names(target)
            assignments.append((targets, node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            assignments.append((_assigned_names(node.target), node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # ``for task_rng in rngs:`` taints the loop variable.
            assignments.append((_assigned_names(node.target), node.iter))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            assignments.append((_assigned_names(node.optional_vars), node.context_expr))

    def value_is_tainted(value: ast.expr) -> bool:
        # Taint flows *structurally*: a bare tainted name, an element
        # of / subscript into a tainted container, or a blessed
        # constructor.  ``rng.choice(...)`` merely *consumes* the
        # generator and returns data, so calls never propagate taint
        # through their arguments.
        if isinstance(value, ast.Call):
            chain = dotted_name(value.func)
            if chain is not None:
                resolved = resolve_alias(chain, aliases)
                if resolved in _RNG_PRODUCERS or (
                    "." not in chain and chain in _RNG_PRODUCER_NAMES
                ):
                    return True
                # ``seq.spawn(3)`` / ``rng.spawn()`` style derivations.
                if chain.endswith(".spawn") and chain.split(".")[0] in tainted:
                    return True
            return False
        if isinstance(value, ast.Name):
            return value.id in tainted
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            return any(value_is_tainted(element) for element in value.elts)
        if isinstance(value, ast.Starred):
            return value_is_tainted(value.value)
        if isinstance(value, ast.Subscript):
            return value_is_tainted(value.value)
        if isinstance(value, ast.IfExp):
            return value_is_tainted(value.body) or value_is_tainted(value.orelse)
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            # ``[g for g in rngs]`` re-packages generators; the element
            # expression is checked with comprehension targets mapped
            # to their (possibly tainted) iterables.
            comp_tainted = any(
                value_is_tainted(gen.iter) for gen in value.generators
            )
            if comp_tainted and isinstance(value.elt, ast.Name):
                targets: set[str] = set()
                for gen in value.generators:
                    targets |= _assigned_names(gen.target)
                return value.elt.id in targets
            return value_is_tainted(value.elt)
        return False

    changed = True
    while changed:
        changed = False
        for targets, value in assignments:
            if targets <= tainted:
                continue
            if value_is_tainted(value):
                tainted |= targets
                changed = True
    return tainted


def free_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> set[str]:
    """Names a closure reads from its enclosing scope (approximate).

    Every Name load anywhere in the body (nested defs included — their
    captures are the outer closure's captures too), minus parameters
    and names the closure itself binds.
    """
    bound: set[str] = set()
    loads: set[str] = set()

    def visit(
        f: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    ) -> None:
        args = f.args
        for param in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound.add(param.arg)
        body = f.body if isinstance(f.body, list) else [f.body]
        for stmt in body:
            for node in ast.walk(stmt):  # type: ignore[arg-type]
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        loads.add(node.id)
                    else:
                        bound.add(node.id)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound.add(node.name)

    visit(func)
    return loads - bound


def escapes(
    name: str, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> bool:
    """Whether the local ``name`` leaves ``func``'s ownership.

    Returning/yielding it, storing it on an object or into a container,
    or passing it to another callable all transfer responsibility to
    someone this analysis cannot see — so the caller is presumed to
    manage the resource and lifecycle rules stand down.
    """
    for node in own_nodes(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(node.value)
            ):
                return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            if any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(node.value)
            ):
                return True
        elif isinstance(node, ast.Call):
            # ``f(x)`` or ``container.append(x)`` hand the value off;
            # ``x.close()`` (method *on* the value) does not.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if any(
                    isinstance(n, ast.Name) and n.id == name
                    for n in ast.walk(arg)
                ):
                    return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None or not any(
                isinstance(n, ast.Name) and n.id == name for n in ast.walk(value)
            ):
                continue
            for target in targets:
                # Attribute/subscript stores (self.x = seg, d[k] = seg)
                # publish the value beyond the function's locals.
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return True
                if isinstance(target, (ast.Tuple, ast.List)) and any(
                    isinstance(e, (ast.Attribute, ast.Subscript))
                    for e in target.elts
                ):
                    return True
    return False


def _calls_method(tree_nodes: list[ast.stmt], name: str, methods: frozenset[str]) -> bool:
    for stmt in tree_nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
    return False


def cleanup_guaranteed(
    name: str,
    assign: ast.stmt,
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    cleanup_methods: frozenset[str] = frozenset({"close", "unlink"}),
) -> bool:
    """Whether ``name`` (bound by ``assign``) is released on every path.

    Accepted shapes, checked in the statement block that contains the
    allocation:

    * ``with name:`` / ``with contextlib.closing(name):`` later in the
      same block — the context manager owns the release;
    * a ``try`` statement whose ``finally`` calls ``name.close()`` or
      ``name.unlink()``, appearing as the *next* effective statement
      (nothing that can raise may sit between allocation and ``try``).
    """
    blocks: list[list[ast.stmt]] = [func.body]
    for node in own_nodes(func):
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                blocks.append(block)
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                blocks.append(handler.body)

    for block in blocks:
        if assign not in block:
            continue
        after = block[block.index(assign) + 1 :]
        for i, stmt in enumerate(after):
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return i == 0
                    if (
                        isinstance(expr, ast.Call)
                        and any(
                            isinstance(a, ast.Name) and a.id == name
                            for a in expr.args
                        )
                    ):
                        return i == 0
            if isinstance(stmt, ast.Try) and _calls_method(
                stmt.finalbody, name, cleanup_methods
            ):
                return i == 0
        return False
    return False
