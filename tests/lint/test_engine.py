"""Engine mechanics: pragmas, select/ignore, discovery, parse errors."""

from __future__ import annotations

from pathlib import Path

from repro.lint import Diagnostic, LintConfig, discover_files, lint_file, lint_paths
from repro.lint.engine import Pragma, parse_pragmas

FIXTURES = Path(__file__).parent / "fixtures"


def test_pragma_suppresses_only_its_line() -> None:
    diags = [
        d for d in lint_file(FIXTURES / "pragma.py", LintConfig())
        if d.code == "SIM006"
    ]
    assert len(diags) == 1
    flagged = (FIXTURES / "pragma.py").read_text().splitlines()[diags[0].line - 1]
    assert "q == 0.5" in flagged  # the unsuppressed comparison, not the pragma'd one


def test_pragma_only_suppresses_named_codes() -> None:
    src = "x = 1\ny = x == 0.5  # simlint: ignore[SIM001]\n"
    assert parse_pragmas(src) == {2: Pragma(codes=frozenset({"SIM001"}))}
    # SIM006 is not named, so a SIM006 finding on line 2 must survive:
    # exercised indirectly via pragma.py above; here we pin the parser.


def test_parse_pragmas_multiple_codes() -> None:
    src = "a = 1  # simlint: ignore[SIM001, SIM006]\n"
    assert parse_pragmas(src) == {
        1: Pragma(codes=frozenset({"SIM001", "SIM006"}))
    }


def test_parse_pragmas_captures_reason() -> None:
    src = "rng = derive(seed, 'k')  # simlint: ignore[SIM011] one stream on purpose\n"
    assert parse_pragmas(src) == {
        1: Pragma(codes=frozenset({"SIM011"}), reason="one stream on purpose")
    }


def test_select_restricts_rules(tmp_path: Path) -> None:
    config = LintConfig(select=frozenset({"SIM006"}))
    diags = lint_file(FIXTURES / "sim001_bad.py", config)
    assert diags == []  # only SIM006 ran, and the file has no float ==
    config = LintConfig(select=frozenset({"SIM001"}))
    diags = lint_file(FIXTURES / "sim001_bad.py", config)
    assert diags and all(d.code == "SIM001" for d in diags)


def test_ignore_drops_rules() -> None:
    config = LintConfig(ignore=frozenset({"SIM001", "SIM005"}))
    diags = lint_file(FIXTURES / "sim001_bad.py", config)
    assert all(d.code not in {"SIM001", "SIM005"} for d in diags)


def test_syntax_error_becomes_sim000(tmp_path: Path) -> None:
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    diags = lint_file(broken, LintConfig())
    assert [d.code for d in diags] == ["SIM000"]
    assert "syntax error" in diags[0].message


def test_discover_files_excludes_globs(tmp_path: Path) -> None:
    (tmp_path / "keep.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "drop.py").write_text("x = 1\n")
    files = discover_files([tmp_path], LintConfig())
    assert [f.name for f in files] == ["keep.py"]


def test_lint_paths_counts_files(tmp_path: Path) -> None:
    (tmp_path / "a.py").write_text("__all__ = []\n")
    (tmp_path / "b.py").write_text("__all__ = []\n")
    findings, n_files = lint_paths([tmp_path], LintConfig())
    assert n_files == 2
    assert findings == []


def test_diagnostics_sorted_and_stable(tmp_path: Path) -> None:
    f = tmp_path / "multi.py"
    f.write_text(
        "__all__ = ['missing']\n"
        "def g(a=[]):\n"
        "    return a == 0.5\n"
    )
    diags = lint_file(f, LintConfig())
    assert diags == sorted(diags)
    assert {d.code for d in diags} == {"SIM003", "SIM005", "SIM006"}
    d = diags[0]
    assert d.to_dict() == {
        "path": d.path, "line": d.line, "col": d.col,
        "code": d.code, "message": d.message,
    }
    assert isinstance(d, Diagnostic)
