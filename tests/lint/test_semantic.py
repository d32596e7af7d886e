"""SIM011, SIM013 and SIM014 behavior on the fixture files and synthetic trees.

Each rule gets at least one proven true positive, one true negative,
and a pragma check (the SIM01x family refuses reason-less pragmas).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_file, run_lint
from repro.lint.semantic import (
    LockEntry,
    compute_lock_entries,
    load_producers_lock,
    write_producers_lock,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _codes(path: Path, code: str) -> list[int]:
    config = LintConfig(select=frozenset({code}))
    return [d.line for d in lint_file(path, config)]


# -- SIM011 -----------------------------------------------------------


def test_sim011_flags_tuple_and_pmap_span_collisions() -> None:
    lines = _codes(FIXTURES / "sim011_bad.py", "SIM011")
    assert len(lines) == 2


def test_sim011_negatives() -> None:
    # Distinct keys, provably-distinct constant seeds, disjoint entry
    # points, and a reasoned pragma: all clean.
    assert _codes(FIXTURES / "sim011_ok.py", "SIM011") == []


# -- SIM013 -----------------------------------------------------------


def test_sim013_flags_each_impurity_class() -> None:
    diags = lint_file(
        FIXTURES / "sim013_bad.py", LintConfig(select=frozenset({"SIM013"}))
    )
    messages = "\n".join(d.message for d in diags)
    assert "os.environ" in messages
    assert "wall clock" in messages
    assert "fresh OS entropy" in messages
    assert "mutated module global" in messages


def test_sim013_pure_and_memoized_producers_pass() -> None:
    assert _codes(FIXTURES / "sim013_ok.py", "SIM013") == []


# -- pragma discipline ------------------------------------------------


_ENV_PRODUCER = (
    "import os\n"
    "\n"
    "from repro.runtime.cache import cached_call\n"
    "\n"
    "def build(n):\n"
    "    return cached_call('env', 1, 'd', lambda: os.getenv('X'))"
    "  # simlint: ignore[SIM013]{reason}\n"
)


def test_sim01x_pragma_without_reason_is_refused(tmp_path: Path) -> None:
    bad = tmp_path / "no_reason.py"
    bad.write_text(_ENV_PRODUCER.format(reason=""))
    diags = lint_file(bad, LintConfig(select=frozenset({"SIM013"})))
    assert len(diags) == 1
    assert "pragma refused" in diags[0].message


def test_sim01x_pragma_with_reason_suppresses(tmp_path: Path) -> None:
    ok = tmp_path / "with_reason.py"
    ok.write_text(_ENV_PRODUCER.format(reason=" the variable names a log path only"))
    assert lint_file(ok, LintConfig(select=frozenset({"SIM013"}))) == []


def test_legacy_rules_do_not_require_reason(tmp_path: Path) -> None:
    f = tmp_path / "legacy.py"
    f.write_text("x = 1 == 0.5  # simlint: ignore[SIM006]\n")
    assert lint_file(f, LintConfig(select=frozenset({"SIM006"}))) == []


# -- SIM014 -----------------------------------------------------------


@pytest.fixture()
def producer_tree(tmp_path: Path) -> Path:
    src = tmp_path / "proj"
    src.mkdir()
    (src / "producer.py").write_text(
        "from repro.runtime.cache import cached_call\n"
        "\n"
        "_VERSION = 1\n"
        "\n"
        "def build(n):\n"
        "    return cached_call('table', _VERSION, 'd', lambda: payload(n))\n"
        "\n"
        "def payload(n):\n"
        "    return list(range(n))\n"
    )
    return src


def _run(tree: Path, lock_name: str = "producers.lock"):
    config = LintConfig(
        select=frozenset({"SIM014"}),
        producers_lock=lock_name,
        root=tree,
    )
    return run_lint([tree], config), config


def test_sim014_silent_without_lock(producer_tree: Path) -> None:
    run, _ = _run(producer_tree)
    assert run.findings == []


def test_sim014_lock_round_trip_and_change_detection(producer_tree: Path) -> None:
    run, config = _run(producer_tree)
    assert run.project is not None
    entries, problems = compute_lock_entries(run.project)
    assert problems == []
    assert set(entries) == {"table"}
    lock_path = config.producers_lock_path
    assert lock_path is not None
    write_producers_lock(lock_path, entries)
    assert load_producers_lock(lock_path) == entries

    # Unchanged tree: lock matches, no findings.
    run2, _ = _run(producer_tree)
    assert run2.findings == []

    # Behavior change without a version bump: flagged.
    producer = producer_tree / "producer.py"
    producer.write_text(producer.read_text().replace("range(n)", "range(n + 1)"))
    run3, _ = _run(producer_tree)
    assert len(run3.findings) == 1
    assert "version stayed 1" in run3.findings[0].message

    # Bumping the version turns it into a stale-lock reminder.
    producer.write_text(producer.read_text().replace("_VERSION = 1", "_VERSION = 2"))
    run4, _ = _run(producer_tree)
    assert len(run4.findings) == 1
    assert "stale" in run4.findings[0].message

    # Re-pinning the lock silences it.
    run5, config5 = _run(producer_tree)
    assert run5.project is not None
    entries5, _ = compute_lock_entries(run5.project)
    write_producers_lock(config5.producers_lock_path, entries5)
    run6, _ = _run(producer_tree)
    assert run6.findings == []


def test_sim014_unknown_producer_flagged(producer_tree: Path) -> None:
    run, config = _run(producer_tree)
    assert config.producers_lock_path is not None
    write_producers_lock(
        config.producers_lock_path, {"other": LockEntry(digest="x", version=1)}
    )
    run2, _ = _run(producer_tree)
    assert len(run2.findings) == 1
    assert "not in" in run2.findings[0].message
