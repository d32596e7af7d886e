"""``--fix`` autofixes: SIM014 version bumps."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, run_lint
from repro.lint.cli import main
from repro.lint.fixes import apply_fixes
from repro.lint.semantic import compute_lock_entries, write_producers_lock


@pytest.fixture()
def bumpable_tree(tmp_path: Path) -> tuple[Path, Path]:
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "producer.py").write_text(
        "from repro.runtime.cache import cached_call\n"
        "\n"
        "_VERSION = 1\n"
        "\n"
        "def build(n):\n"
        "    return cached_call('table', _VERSION, 'd', lambda: make(n))\n"
        "\n"
        "def inline(n):\n"
        "    return cached_call('row', 7, 'd', lambda: make(n) + [0])\n"
        "\n"
        "def make(n):\n"
        "    return list(range(n))\n"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.simlint]\n"
        'select = ["SIM014"]\n'
        'producers-lock = "producers.lock"\n'
    )
    return tree, pyproject


def test_sim014_bump_module_constant_and_inline_literal(
    bumpable_tree: tuple[Path, Path]
) -> None:
    tree, pyproject = bumpable_tree
    lock_path = pyproject.parent / "producers.lock"
    config = LintConfig(
        select=frozenset({"SIM014"}), producers_lock=str(lock_path), root=tree
    )
    run = run_lint([tree], config)
    entries, problems = compute_lock_entries(run.project)
    assert problems == []
    write_producers_lock(lock_path, entries)

    # Change both producers' reachable code without bumping versions.
    producer = tree / "producer.py"
    producer.write_text(producer.read_text().replace("range(n)", "range(n * 2)"))
    run2 = run_lint([tree], config)
    assert len(run2.findings) == 2
    assert all("version stayed" in d.message for d in run2.findings)

    result = apply_fixes(run2)
    assert len(result.fixed) == 2 and not result.skipped
    fixed = result.new_sources[str(producer)]
    assert "_VERSION = 2" in fixed
    assert "cached_call('row', 8, 'd'" in fixed
    producer.write_text(fixed)

    # After re-pinning the lock the tree is clean again.
    run3 = run_lint([tree], config)
    entries3, _ = compute_lock_entries(run3.project)
    write_producers_lock(lock_path, entries3)
    assert run_lint([tree], config).findings == []


@pytest.fixture()
def shared_version_tree(tmp_path: Path) -> tuple[Path, Path]:
    """Two producers bumping through ONE module constant: their fixes
    target the same source line, so only the first may apply."""
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "producer.py").write_text(
        "from repro.runtime.cache import cached_call\n"
        "\n"
        "_VERSION = 1\n"
        "\n"
        "def build(n):\n"
        "    return cached_call('table', _VERSION, 'd', lambda: make(n))\n"
        "\n"
        "def build_wide(n):\n"
        "    return cached_call('wide', _VERSION, 'd', lambda: make(n) * 2)\n"
        "\n"
        "def make(n):\n"
        "    return list(range(n))\n"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        "[tool.simlint]\n"
        'select = ["SIM014"]\n'
        'producers-lock = "producers.lock"\n'
    )
    return tree, pyproject


def test_overlapping_fixes_refused_once_not_applied_twice(
    shared_version_tree: tuple[Path, Path]
) -> None:
    """Regression: two fixes on one line must not double-bump it."""
    tree, pyproject = shared_version_tree
    lock_path = pyproject.parent / "producers.lock"
    config = LintConfig(
        select=frozenset({"SIM014"}), producers_lock=str(lock_path), root=tree
    )
    run = run_lint([tree], config)
    entries, _ = compute_lock_entries(run.project)
    write_producers_lock(lock_path, entries)

    producer = tree / "producer.py"
    producer.write_text(producer.read_text().replace("range(n)", "range(n + 1)"))
    run2 = run_lint([tree], config)
    assert len(run2.findings) == 2  # both producers report through _VERSION

    result = apply_fixes(run2)
    assert len(result.fixed) == 1
    assert len(result.skipped) == 1
    assert "overlaps an earlier fix" in result.skipped[0][1]
    # Applied exactly once: 1 -> 2, never 3.
    assert "_VERSION = 2" in result.new_sources[str(producer)]
    assert "_VERSION = 3" not in result.new_sources[str(producer)]


def test_cli_fix_prints_rerun_note_for_overlaps(
    shared_version_tree: tuple[Path, Path], capsys: pytest.CaptureFixture[str]
) -> None:
    """The CLI aggregates overlap skips into one 're-run --fix' note."""
    tree, pyproject = shared_version_tree
    assert main([str(tree), "--config", str(pyproject), "--update-lock"]) == 0
    producer = tree / "producer.py"
    producer.write_text(producer.read_text().replace("range(n)", "range(n + 2)"))
    capsys.readouterr()
    main([str(tree), "--config", str(pyproject), "--fix"])
    captured = capsys.readouterr()
    assert "_VERSION = 2" in producer.read_text()
    assert "1 fix(es) overlapped an earlier edit" in captured.err
    assert "re-run --fix after this pass" in captured.err


def test_cli_fix_flow(
    bumpable_tree: tuple[Path, Path], capsys: pytest.CaptureFixture[str]
) -> None:
    tree, pyproject = bumpable_tree
    assert main([str(tree), "--config", str(pyproject), "--update-lock"]) == 0
    producer = tree / "producer.py"
    producer.write_text(producer.read_text().replace("range(n)", "range(n + 3)"))
    capsys.readouterr()
    # --fix bumps both versions; exit reflects the re-linted tree (the
    # bumped versions now disagree with the stale lock, still exit 1).
    code = main([str(tree), "--config", str(pyproject), "--fix"])
    out = capsys.readouterr().out
    assert "fixed:" in out
    assert "_VERSION = 2" in producer.read_text()
    assert code == 1  # stale lock remains until --update-lock
    assert main([str(tree), "--config", str(pyproject), "--update-lock"]) == 0
    assert main([str(tree), "--config", str(pyproject)]) == 0
