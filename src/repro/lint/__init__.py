"""simlint — static analysis for simulation invariants, in two phases.

The paper's figures are statistical claims over seeded stochastic
simulations, so the repo's credibility rests on seed-determinism
(:mod:`repro.utils.rng`).  simlint *enforces* that discipline — plus a
handful of correctness invariants — on every commit.

Per-file rules (phase 1, one AST at a time):

========  ===========================================================
SIM001    randomness flows through ``make_rng``/``spawn``/``derive``
SIM002    no wall-clock reads inside simulation code
SIM003    no mutable default arguments
SIM004    no bare/overbroad ``except`` clauses
SIM005    ``__all__`` declared and accurate in public modules
SIM006    no ``==``/``!=`` against float literals
SIM007    public randomness consumers take an annotated seed/rng param
SIM008    no bare ``print()`` outside CLI and reporting modules
========  ===========================================================

Project rules (phase 2, over the cross-module symbol table and call
graph built by :mod:`repro.lint.index`):

========  ===========================================================
SIM011    no two derive()/pmap-key sites with colliding constant keys
SIM013    cached producers stay pure functions of their cache key
SIM014    producer code changes require a version bump (producers.lock)
========  ===========================================================

Run ``python -m repro.lint src tests benchmarks`` (or the
``repro-lint`` script), tune via ``[tool.simlint]`` in pyproject.toml,
and suppress a single line with ``# simlint: ignore[SIMxxx] reason``
(the reason is mandatory for the SIM01x family).  The set is kept to
bug classes no runtime check, test or measured gate would fail on;
docs/static-analysis.md lists what guards the rules that were removed.
New rules are one registered class — see the same document.
"""

from repro.lint.baseline import (
    Baseline,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.config import LintConfig, TreeRules, find_pyproject, load_config
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    LintRun,
    Pragma,
    discover_files,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.lint.index import ProjectIndex, build_index
from repro.lint.rules import (
    FileContext,
    ProjectContext,
    ProjectRule,
    Rule,
    register_rule,
    registered_rules,
    rule_codes,
)
from repro.lint.sarif import render_sarif, to_sarif

__all__ = [
    "Baseline",
    "Diagnostic",
    "FileContext",
    "LintConfig",
    "LintRun",
    "Pragma",
    "ProjectContext",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "TreeRules",
    "apply_baseline",
    "build_index",
    "discover_files",
    "find_pyproject",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "load_config",
    "register_rule",
    "registered_rules",
    "render_sarif",
    "rule_codes",
    "run_lint",
    "to_sarif",
    "write_baseline",
]
