"""``repro-lint --fix``: the mechanical SIM014 version bump.

Only fixes whose correctness is locally decidable are attempted.  The
"code changed but version stayed N" variant of SIM014 bumps the
producer's version integer in place, whether it is an inline literal
or a module-level ``_FOO_CACHE_VERSION = N`` constant.  After bumping,
re-run ``repro-lint --update-lock`` to re-pin the lock.

Edits are collected per file and applied bottom-up so earlier edits
never invalidate later line numbers.  Everything else (SIM011 key
collisions, SIM013 impurities) requires a design decision and is
deliberately left to a human.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import FileContext, ProjectContext
from repro.lint.semantic import Producer, find_producers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports rules)
    from repro.lint.engine import LintRun

__all__ = ["FixResult", "apply_fixes"]


@dataclass
class FixResult:
    """What ``apply_fixes`` changed and what it declined to touch."""

    new_sources: dict[str, str]
    fixed: list[Diagnostic]
    skipped: list[tuple[Diagnostic, str]]


@dataclass(frozen=True)
class _Edit:
    """Replace source lines [start, end] (1-based, inclusive)."""

    start: int
    end: int
    replacement: list[str]


def _find_version_assign(
    module_tree: ast.Module, name: str
) -> ast.Constant | None:
    for stmt in module_tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            if isinstance(stmt.value, ast.Constant) and isinstance(
                stmt.value.value, int
            ):
                return stmt.value
    return None


def _bump_literal(source: str, node: ast.Constant) -> _Edit | None:
    if node.lineno != node.end_lineno:
        return None
    line = source.splitlines()[node.lineno - 1]
    start, end = node.col_offset, node.end_col_offset
    if end is None or line[start:end] != str(node.value):
        return None
    bumped = line[:start] + str(int(node.value) + 1) + line[end:]
    return _Edit(node.lineno, node.lineno, [bumped])


def _fix_version_bump(
    ctx: FileContext, diag: Diagnostic, producer: Producer
) -> tuple[_Edit, str | None] | tuple[None, str]:
    node = producer.version_node
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        edit = _bump_literal(ctx.source, node)
        if edit is None:
            return None, "version literal is not editable in place"
        return edit, None
    if isinstance(node, ast.Name):
        constant = _find_version_assign(ctx.tree, node.id)
        if constant is None:
            return None, f"module constant {node.id!r} not found"
        edit = _bump_literal(ctx.source, constant)
        if edit is None:
            return None, f"module constant {node.id!r} is not editable in place"
        return edit, None
    return None, "version is not an int literal or module constant"


def _apply_edits(source: str, edits: Sequence[_Edit]) -> str:
    lines = source.splitlines()
    for edit in sorted(edits, key=lambda e: e.start, reverse=True):
        lines[edit.start - 1 : edit.end] = edit.replacement
    trailing = "\n" if source.endswith("\n") else ""
    return "\n".join(lines) + trailing


def apply_fixes(run: "LintRun") -> FixResult:
    """Compute fixed sources for a completed lint run (nothing is written).

    The caller (the CLI) writes ``new_sources`` to disk and re-lints;
    SIM014 fixes additionally need an ``--update-lock`` run afterwards
    to re-pin the bumped producers.
    """
    project: ProjectContext | None = run.project
    fixed: list[Diagnostic] = []
    skipped: list[tuple[Diagnostic, str]] = []
    edits_by_path: dict[str, list[_Edit]] = {}
    claimed_lines: dict[str, set[int]] = {}

    producers_at: dict[tuple[str, int], Producer] = {}
    if project is not None:
        for producer in find_producers(project):
            producers_at[(producer.owner.path, producer.call.lineno)] = producer

    for diag in run.findings:
        if diag.code != "SIM014" or "version stayed" not in diag.message:
            continue
        ctx = project.files.get(diag.path) if project is not None else None
        if ctx is None:
            continue
        edit: _Edit | None = None
        reason: str | None = None
        producer = producers_at.get((diag.path, diag.line))
        if producer is None:
            reason = "producer registration not found at the reported line"
        else:
            edit, reason = _fix_version_bump(ctx, diag, producer)
        if edit is None:
            skipped.append((diag, reason or "unfixable"))
            continue
        span = set(range(edit.start, edit.end + 1))
        if span & claimed_lines.setdefault(diag.path, set()):
            skipped.append((diag, "overlaps an earlier fix; re-run --fix"))
            continue
        claimed_lines[diag.path] |= span
        edits_by_path.setdefault(diag.path, []).append(edit)
        fixed.append(diag)

    new_sources = {
        path: _apply_edits(project.files[path].source, edits)  # type: ignore[union-attr]
        for path, edits in edits_by_path.items()
    }
    return FixResult(new_sources=new_sources, fixed=fixed, skipped=skipped)
