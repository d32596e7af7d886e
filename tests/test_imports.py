"""Import hygiene: every subpackage loads on its own, and the linter stays light.

Each check runs in a fresh interpreter, because this process has
already imported most of the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = sorted(init.parent.name for init in (SRC / "repro").glob("*/__init__.py"))


def _fresh_python(code: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def test_lint_cli_does_not_load_the_simulator() -> None:
    proc = _fresh_python(
        "import sys\n"
        "import repro.lint.cli\n"
        "print(*sorted(m for m in ('scipy', 'networkx', 'repro.core')"
        " if m in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_on_its_own(name: str) -> None:
    proc = _fresh_python(f"import repro.{name}")
    assert proc.returncode == 0, proc.stderr
