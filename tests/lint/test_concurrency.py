"""Default-config coverage of the shm owners and SARIF rule metadata.

Both checks run against kept project rules: SIM012 must see the
postings owner with no configuration, and every emitted rule must
carry a ``helpUri`` pointing at its anchor in docs/static-analysis.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_file
from repro.lint.sarif import to_sarif

FIXTURES = Path(__file__).parent / "fixtures"


def _diags(name: str, code: str):
    return lint_file(FIXTURES / name, LintConfig(select=frozenset({code})))


# -- default config coverage ------------------------------------------

_POSTINGS_OWNER = (
    "from repro.runtime.shm import ShardedPostings\n"
    "\n"
    "def leak(content):\n"
    "    share = ShardedPostings(content)\n"
    "    spec = share.spec\n"
    "    return spec\n"
    "\n"
    "def publish(content):\n"
    "    with ShardedPostings(content) as share:\n"
    "        return share.spec\n"
)


@pytest.mark.parametrize("code", ["SIM012"])
def test_default_config_covers_the_postings_owner(tmp_path: Path, code: str) -> None:
    path = tmp_path / "postings_owner.py"
    path.write_text(_POSTINGS_OWNER)
    assert len(lint_file(path, LintConfig(select=frozenset({code})))) == 1


# -- SARIF integration ------------------------------------------------


def test_sarif_rules_carry_help_uris() -> None:
    diags = _diags("sim010_bad.py", "SIM010") + _diags("sim012_bad.py", "SIM012")
    log = to_sarif(diags)
    rules = log["runs"][0]["tool"]["driver"]["rules"]  # type: ignore[index]
    assert [r["id"] for r in rules] == ["SIM010", "SIM012"]
    for rule in rules:
        anchor = rule["id"].lower()
        assert rule["helpUri"].endswith(f"docs/static-analysis.md#{anchor}")
