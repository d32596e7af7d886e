"""SARIF rule metadata for the kept project rules.

Every emitted rule must carry a ``helpUri`` pointing at its anchor in
docs/static-analysis.md.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintConfig, lint_file
from repro.lint.sarif import to_sarif

FIXTURES = Path(__file__).parent / "fixtures"


def _diags(name: str, code: str):
    return lint_file(FIXTURES / name, LintConfig(select=frozenset({code})))


# -- SARIF integration ------------------------------------------------


def test_sarif_rules_carry_help_uris() -> None:
    diags = _diags("sim011_bad.py", "SIM011") + _diags("sim013_bad.py", "SIM013")
    log = to_sarif(diags)
    rules = log["runs"][0]["tool"]["driver"]["rules"]  # type: ignore[index]
    assert [r["id"] for r in rules] == ["SIM011", "SIM013"]
    for rule in rules:
        anchor = rule["id"].lower()
        assert rule["helpUri"].endswith(f"docs/static-analysis.md#{anchor}")
