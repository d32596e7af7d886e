"""The simlint engine: discover, parse, index, run rules, filter.

v2 runs in two phases.  Phase 1 parses every target file once, runs
the per-file rules, and builds the project-wide
:class:`~repro.lint.index.ProjectIndex` (symbol table + call graph).
Phase 2 hands that index to the registered
:class:`~repro.lint.rules.ProjectRule`\\ s (SIM011, SIM013 and SIM014:
seed-stream and artifact-cache rules), whose analyses span function
and module boundaries.

Suppression happens here, not in rules: a rule always reports what it
sees, and the engine drops diagnostics whose line carries a
``# simlint: ignore[SIMxxx]`` pragma or whose code is deselected
(globally or by a ``per-tree`` overlay).  Pragmas for the semantic
SIM01x family must carry a justifying reason after the bracket —
``# simlint: ignore[SIM011] serial-vs-parallel parity needs one stream``
— or the suppression is refused.
"""

from __future__ import annotations

import ast
import fnmatch
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint import builtin as _builtin  # noqa: F401  (registers SIM001-SIM008)
from repro.lint import semantic as _semantic  # noqa: F401  (registers SIM011-SIM014)
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.index import ProjectIndex, load_or_build_index
from repro.lint.rules import (
    FileContext,
    ProjectContext,
    ProjectRule,
    Rule,
    registered_rules,
)

__all__ = [
    "LintRun",
    "Pragma",
    "discover_files",
    "iter_findings",
    "lint_file",
    "lint_paths",
    "parse_pragmas",
    "run_lint",
]

# ``# simlint: ignore[SIM001, SIM006] optional reason`` — codes are
# explicit; there is deliberately no blanket "ignore everything" form.
_PRAGMA_RE = re.compile(r"#\s*simlint:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(.*)$")

# Semantic-family suppressions must explain themselves: the rules they
# silence encode cross-module contracts a reader cannot re-derive from
# the single pragma'd line.
_REASON_REQUIRED_RE = re.compile(r"^SIM01\d$")


@dataclass(frozen=True)
class Pragma:
    """One in-line suppression: the codes it names plus its reason text."""

    codes: frozenset[str]
    reason: str = ""


def parse_pragmas(source: str) -> dict[int, Pragma]:
    """Map 1-based line numbers to the :class:`Pragma` present there."""
    pragmas: dict[int, Pragma] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",") if code.strip()
            )
            if codes:
                pragmas[lineno] = Pragma(codes=codes, reason=match.group(2).strip())
    return pragmas


def discover_files(
    paths: Sequence[str | Path], config: LintConfig
) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` targets.

    ``exclude`` globs apply only to directory *expansion*: a file named
    explicitly on the command line is always linted, so excluded trees
    (e.g. lint-rule fixtures) remain individually checkable.
    """
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
            apply_exclude = True
        else:
            candidates = [path]
            apply_exclude = False
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            posix = candidate.as_posix()
            if apply_exclude and any(
                fnmatch.fnmatch(posix, pattern) for pattern in config.exclude
            ):
                continue
            out.append(candidate)
    return out


@dataclass
class LintRun:
    """Everything one lint invocation produced."""

    findings: list[Diagnostic]
    files_checked: int
    project: ProjectContext | None = None
    index_build_seconds: float = 0.0
    total_seconds: float = 0.0
    #: pre-filter counts of suppressed findings, for ``--stats``.
    suppressed: int = 0

    @property
    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.findings:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))


def _parse_one(
    path: Path, config: LintConfig
) -> tuple[FileContext | None, Diagnostic | None]:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return None, Diagnostic(
            path=str(path), line=1, col=0, code="SIM000",
            message=f"cannot read file: {err}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as err:
        return None, Diagnostic(
            path=str(path), line=err.lineno or 1,
            col=(err.offset or 1) - 1, code="SIM000",
            message=f"syntax error: {err.msg}",
        )
    ctx = FileContext(
        path=str(path),
        tree=tree,
        source=source,
        config=config,
        lines=tuple(source.splitlines()),
    )
    return ctx, None


def _filter_findings(
    findings: Iterable[Diagnostic],
    contexts: dict[str, FileContext],
    config: LintConfig,
) -> tuple[list[Diagnostic], int]:
    """Apply pragma suppression and per-tree enablement; count drops."""
    pragma_cache: dict[str, dict[int, Pragma]] = {}
    kept: list[Diagnostic] = []
    suppressed = 0
    for diag in findings:
        ctx = contexts.get(diag.path)
        if ctx is not None and not config.is_rule_enabled(
            diag.code, ctx.posix_path
        ):
            suppressed += 1
            continue
        if ctx is None:
            kept.append(diag)
            continue
        pragmas = pragma_cache.get(diag.path)
        if pragmas is None:
            pragmas = parse_pragmas(ctx.source)
            pragma_cache[diag.path] = pragmas
        pragma = pragmas.get(diag.line)
        if pragma is not None and diag.code in pragma.codes:
            if _REASON_REQUIRED_RE.match(diag.code) and not pragma.reason:
                kept.append(
                    replace(
                        diag,
                        message=diag.message
                        + " [pragma refused: SIM01x suppressions "
                        "require a reason after the bracket]",
                    )
                )
            else:
                suppressed += 1
            continue
        kept.append(diag)
    return kept, suppressed


def run_lint(
    paths: Sequence[str | Path],
    config: LintConfig,
    *,
    rules: dict[str, Rule | ProjectRule] | None = None,
    index_cache: Path | None = None,
) -> LintRun:
    """Lint ``paths`` end to end; the full-fidelity engine entry point.

    Returns the :class:`LintRun` with findings sorted, pragmas and
    per-tree selection applied, and the built :class:`ProjectContext`
    attached (for ``--update-lock``, ``--stats``, and tooling).
    """
    start = time.perf_counter()  # simlint: ignore[SIM002] linter self-timing, not simulation output
    if rules is None:
        rules = registered_rules()
    files = discover_files(paths, config)

    contexts: dict[str, FileContext] = {}
    raw: list[Diagnostic] = []
    for path in files:
        ctx, error = _parse_one(path, config)
        if error is not None:
            raw.append(error)
        if ctx is not None:
            contexts[ctx.path] = ctx

    file_rules = {
        code: rule for code, rule in rules.items() if isinstance(rule, Rule)
    }
    project_rules = {
        code: rule
        for code, rule in rules.items()
        if isinstance(rule, ProjectRule) and not isinstance(rule, Rule)
    }

    for ctx in contexts.values():
        for code, rule in file_rules.items():
            if not config.is_rule_enabled(code, ctx.posix_path):
                continue
            raw.extend(rule.check(ctx))

    project: ProjectContext | None = None
    index_seconds = 0.0
    if project_rules or contexts:
        index: ProjectIndex = load_or_build_index(
            [(Path(ctx.path), ctx.tree) for ctx in contexts.values()],
            index_cache,
        )
        index_seconds = index.build_seconds
        project = ProjectContext(index=index, config=config, files=dict(contexts))
        for code, rule in project_rules.items():
            raw.extend(rule.check_project(project))

    findings, suppressed = _filter_findings(raw, contexts, config)
    return LintRun(
        findings=sorted(findings),
        files_checked=len(files),
        project=project,
        index_build_seconds=index_seconds,
        total_seconds=time.perf_counter() - start,  # simlint: ignore[SIM002] linter self-timing, not simulation output
        suppressed=suppressed,
    )


def lint_file(
    path: str | Path,
    config: LintConfig,
    *,
    rules: dict[str, Rule | ProjectRule] | None = None,
) -> list[Diagnostic]:
    """Lint one file (project rules see a single-file index).

    A syntax error surfaces as a SIM000 diagnostic.
    """
    return run_lint([Path(path)], config, rules=rules).findings


def lint_paths(
    paths: Sequence[str | Path],
    config: LintConfig,
    *,
    rules: dict[str, Rule | ProjectRule] | None = None,
) -> tuple[list[Diagnostic], int]:
    """Lint many paths; returns ``(diagnostics, files_checked)``."""
    run = run_lint(paths, config, rules=rules)
    return run.findings, run.files_checked


def iter_findings(
    paths: Sequence[str | Path], config: LintConfig
) -> Iterator[Diagnostic]:
    """Convenience generator over :func:`lint_paths` findings."""
    findings, _ = lint_paths(paths, config)
    yield from findings
