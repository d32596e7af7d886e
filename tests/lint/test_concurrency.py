"""SIM018-SIM021 behavior on the fixture files.

Each rule gets proven true positives (every shape the fixture encodes),
a clean negative file, and the SIM02x pragma-reason discipline check.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_file
from repro.lint.sarif import to_sarif

FIXTURES = Path(__file__).parent / "fixtures"


def _diags(name: str, code: str):
    return lint_file(FIXTURES / name, LintConfig(select=frozenset({code})))


# -- SIM018 -----------------------------------------------------------


def test_sim018_flags_module_and_closure_mutations() -> None:
    diags = _diags("sim018_bad.py", "SIM018")
    messages = "\n".join(d.message for d in diags)
    assert len(diags) == 3  # list.append task, dict-augassign task, lambda
    assert "_RESULTS" in messages
    assert "_TOTALS" in messages
    assert "captured 'acc'" in messages


def test_sim018_keyed_memo_and_returned_results_pass() -> None:
    assert _diags("sim018_ok.py", "SIM018") == []


# -- SIM019 -----------------------------------------------------------


def test_sim019_flags_each_write_shape() -> None:
    diags = _diags("sim019_bad.py", "SIM019")
    messages = "\n".join(d.message for d in diags)
    assert len(diags) == 4  # direct store, via-call param, returner, out=
    assert "view.neighbors[0]" in messages
    assert "sink.offsets[0]" in messages  # interprocedural param taint
    assert ".fill()" in messages  # taint through a returning helper
    assert "out=" in messages


def test_sim019_reads_copies_and_specs_pass() -> None:
    assert _diags("sim019_ok.py", "SIM019") == []


# -- SIM020 -----------------------------------------------------------


def test_sim020_flags_stale_constant_stamps() -> None:
    diags = _diags("sim020_bad.py", "SIM020")
    assert len(diags) == 2  # np.zeros buffer and scratch_alloc buffer
    assert all("constant stamp" in d.message for d in diags)


def test_sim020_epoch_unpaint_and_fresh_buffers_pass() -> None:
    assert _diags("sim020_ok.py", "SIM020") == []


# -- SIM021 -----------------------------------------------------------


def test_sim021_flags_each_unsafe_cargo() -> None:
    diags = _diags("sim021_bad.py", "SIM021")
    messages = "\n".join(d.message for d in diags)
    assert len(diags) == 5
    assert "owner handle" in messages
    assert "attached shm view" in messages
    assert "MetricsRegistry" in messages
    assert "mmap-backed" in messages
    assert "captures 'share'" in messages


def test_sim021_spec_shipping_passes() -> None:
    assert _diags("sim021_ok.py", "SIM021") == []


# -- default config coverage ------------------------------------------

_POSTINGS_OWNER = (
    "from repro.runtime.parallel import pmap\n"
    "from repro.runtime.shm import ShardedPostings, attach_postings\n"
    "\n"
    "def count(item, task_rng):\n"
    "    return 1\n"
    "\n"
    "def leak(content):\n"
    "    share = ShardedPostings(content)\n"
    "    spec = share.spec\n"
    "    return spec\n"
    "\n"
    "def ship(content, seed):\n"
    "    with ShardedPostings(content) as share:\n"
    "        return pmap(count, [share], seed=seed, key='s021-postings')\n"
    "\n"
    "def poke(spec):\n"
    "    view = attach_postings(spec)\n"
    "    view.instance_peer[0] = -1\n"
    "\n"
    "def publish(matrix):\n"
    "    with ShardedPostings(matrix.T) as share:\n"
    "        return share.spec\n"
)


@pytest.mark.parametrize("code", ["SIM012", "SIM016", "SIM019", "SIM021"])
def test_default_config_covers_the_postings_owner(tmp_path: Path, code: str) -> None:
    path = tmp_path / "postings_owner.py"
    path.write_text(_POSTINGS_OWNER)
    assert len(lint_file(path, LintConfig(select=frozenset({code})))) == 1


# -- pragma discipline ------------------------------------------------


def test_sim02x_pragma_without_reason_is_refused(tmp_path: Path) -> None:
    source = (
        "from repro.runtime.shm import attach_topology\n"
        "\n"
        "def poke(spec):\n"
        "    view = attach_topology(spec)\n"
        "    view.neighbors[0] = -1  # simlint: ignore[SIM019]\n"
    )
    bad = tmp_path / "no_reason.py"
    bad.write_text(source)
    diags = lint_file(bad, LintConfig(select=frozenset({"SIM019"})))
    assert len(diags) == 1
    assert "pragma refused" in diags[0].message


def test_sim02x_pragma_with_reason_suppresses(tmp_path: Path) -> None:
    source = (
        "from repro.runtime.shm import attach_topology\n"
        "\n"
        "def poke(spec):\n"
        "    view = attach_topology(spec)\n"
        "    view.neighbors[0] = -1  # simlint: ignore[SIM019] deliberate fault-injection probe\n"
    )
    ok = tmp_path / "with_reason.py"
    ok.write_text(source)
    assert lint_file(ok, LintConfig(select=frozenset({"SIM019"}))) == []


# -- SARIF integration ------------------------------------------------


def test_sarif_rules_carry_help_uris() -> None:
    diags = _diags("sim019_bad.py", "SIM019") + _diags("sim021_bad.py", "SIM021")
    log = to_sarif(diags)
    rules = log["runs"][0]["tool"]["driver"]["rules"]  # type: ignore[index]
    assert [r["id"] for r in rules] == ["SIM019", "SIM021"]
    for rule in rules:
        anchor = rule["id"].lower()
        assert rule["helpUri"].endswith(f"docs/static-analysis.md#{anchor}")
