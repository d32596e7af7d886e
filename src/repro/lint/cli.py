"""simlint command line: ``python -m repro.lint [paths] [options]``.

Exit codes follow compiler convention: 0 clean, 1 findings, 2 usage or
configuration error.  ``--format json`` emits a stable machine-readable
schema (documented in docs/static-analysis.md) for CI annotation;
``--format sarif`` emits SARIF 2.1.0 for code-scanning uploads.

v2 additions: ``--baseline``/``--write-baseline`` (adopt-then-ratchet
workflow), ``--update-lock`` (re-pin SIM014's producers.lock),
``--fix`` (the mechanical SIM014 version bump), ``--stats`` (per-rule
counts and index timings), and ``--index-cache`` (reuse the phase-1
symbol table across CI steps).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintRun, run_lint
from repro.lint.fixes import apply_fixes
from repro.lint.rules import registered_rules
from repro.lint.sarif import render_sarif
from repro.lint.semantic import compute_lock_entries, write_producers_lock

__all__ = ["main", "build_parser", "render_json"]

JSON_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the simlint argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "simlint: two-phase static analyzer for the repro codebase — "
            "per-file invariants (RNG discipline, wall-clock bans, export "
            "hygiene) plus cross-module rules (derived-seed collisions, "
            "cache purity, version-bump enforcement)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. SIM001,SIM006)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml (default: nearest ancestor of cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print registered rules and exit",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of accepted findings (default: [tool.simlint] baseline)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report all findings, ignoring any configured baseline",
    )
    parser.add_argument(
        "--update-lock", action="store_true",
        help="re-pin producers.lock to the current producer digests and exit",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply mechanical fixes (SIM014 version bump)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-rule counts, files indexed, and timings to stderr",
    )
    parser.add_argument(
        "--index-cache", default=None, metavar="DIR",
        help="directory for the phase-1 symbol-table cache (CI reuse)",
    )
    return parser


def _parse_codes(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(code.strip() for code in raw.split(",") if code.strip())


def render_json(
    findings: Sequence[Diagnostic], files_checked: int
) -> dict[str, object]:
    """The ``--format json`` payload (schema version pinned for CI)."""
    counts: dict[str, int] = {}
    for diag in findings:
        counts[diag.code] = counts.get(diag.code, 0) + 1
    return {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "diagnostics": [diag.to_dict() for diag in findings],
        "counts": dict(sorted(counts.items())),
    }


def _print_stats(run: LintRun, *, baselined: int) -> None:
    err = sys.stderr
    print("simlint --stats", file=err)
    print(f"  files checked:      {run.files_checked}", file=err)
    if run.project is not None:
        print(f"  files indexed:      {len(run.project.index.modules)}", file=err)
        print(f"  functions indexed:  {len(run.project.index.functions)}", file=err)
        edges = sum(len(sites) for sites in run.project.index.calls.values())
        print(f"  call edges:         {edges}", file=err)
    print(f"  index build:        {run.index_build_seconds:.3f}s", file=err)
    print(f"  total:              {run.total_seconds:.3f}s", file=err)
    print(f"  suppressed:         {run.suppressed}", file=err)
    if baselined:
        print(f"  baselined:          {baselined}", file=err)
    counts = run.rule_counts
    if counts:
        print("  findings by rule:", file=err)
        for code, count in counts.items():
            print(f"    {code}: {count}", file=err)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.lint`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    rules = registered_rules()
    if args.list_rules:
        for code, rule in rules.items():
            print(f"{code}  {rule.summary}")
        return 0

    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    for label, raw, codes in (
        ("--select", args.select, select),
        ("--ignore", args.ignore, ignore),
    ):
        if raw is not None and not codes:
            print(f"error: {label} requires at least one rule code", file=sys.stderr)
            return 2
        unknown = sorted(codes - rules.keys()) if codes else []
        if unknown:
            print(
                f"error: {label} names unknown rule(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    if args.config is not None:
        pyproject = Path(args.config)
        if not pyproject.is_file():
            print(f"error: no such config file: {pyproject}", file=sys.stderr)
            return 2
    else:
        pyproject = find_pyproject(Path.cwd())
    try:
        config: LintConfig = load_config(pyproject, select=select, ignore=ignore)
    except TypeError as err:
        print(f"error: bad [tool.simlint] configuration: {err}", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    index_cache = Path(args.index_cache) if args.index_cache else None
    run = run_lint(args.paths, config, index_cache=index_cache)

    if args.update_lock:
        lock_path = config.producers_lock_path
        if lock_path is None:
            print(
                "error: --update-lock needs [tool.simlint] producers-lock",
                file=sys.stderr,
            )
            return 2
        if run.project is None:
            print("error: nothing was indexed; cannot compute lock", file=sys.stderr)
            return 2
        entries, problems = compute_lock_entries(run.project)
        for problem in problems:
            print(f"warning: {problem}", file=sys.stderr)
        write_producers_lock(lock_path, entries)
        print(f"simlint: wrote {len(entries)} producer(s) to {lock_path}")
        return 0

    if args.fix:
        result = apply_fixes(run)
        for path, new_source in sorted(result.new_sources.items()):
            Path(path).write_text(new_source, encoding="utf-8")
        for diag in result.fixed:
            print(f"fixed: {diag.format_human()}")
        for diag, reason in result.skipped:
            print(f"not fixed ({reason}): {diag.format_human()}", file=sys.stderr)
        overlaps = [
            diag for diag, reason in result.skipped if "overlap" in reason
        ]
        if overlaps:
            # Overlapping edits (two producers bumping one shared
            # version constant) are refused rather than applied
            # blindly; one more pass picks up the survivors once the
            # first rewrite has landed.
            print(
                f"simlint: {len(overlaps)} fix(es) overlapped an earlier "
                f"edit and were skipped; re-run --fix after this pass",
                file=sys.stderr,
            )
        if result.new_sources:
            # Re-lint from disk so the exit code reflects the fixed tree.
            run = run_lint(args.paths, config, index_cache=index_cache)

    findings = run.findings
    baselined = 0
    baseline_path = (
        Path(args.baseline) if args.baseline else config.baseline_path
    )
    if args.write_baseline:
        if baseline_path is None:
            print(
                "error: --write-baseline needs --baseline or "
                "[tool.simlint] baseline",
                file=sys.stderr,
            )
            return 2
        written = write_baseline(baseline_path, findings)
        print(
            f"simlint: baselined {written.total} finding(s) to {baseline_path}"
        )
        return 0
    if baseline_path is not None and not args.no_baseline:
        baseline = load_baseline(baseline_path)
        if baseline is not None:
            result_b = apply_baseline(findings, baseline)
            findings = result_b.new
            baselined = len(result_b.matched)
            for key in result_b.stale:
                print(
                    f"warning: baseline entry no longer matches anything "
                    f"(run --write-baseline to drop it): {key}",
                    file=sys.stderr,
                )

    if args.format == "json":
        print(json.dumps(render_json(findings, run.files_checked), indent=2))
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(findings))
    else:
        for diag in findings:
            print(diag.format_human())
        noun = "file" if run.files_checked == 1 else "files"
        suffix = f" ({baselined} baselined)" if baselined else ""
        if findings:
            print(
                f"simlint: {len(findings)} finding(s) in "
                f"{run.files_checked} {noun}{suffix}"
            )
        else:
            print(f"simlint: {run.files_checked} {noun} clean{suffix}")
    if args.stats:
        _print_stats(run, baselined=baselined)
    return 1 if findings else 0
