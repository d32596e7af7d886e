"""Import hygiene: every subpackage loads on its own, and nothing loads more
than it uses: the linter stays light, and so does the query service.

Each check runs in a fresh interpreter, because this process has
already imported most of the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import SERVICE_NODES

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = sorted(init.parent.name for init in (SRC / "repro").glob("*/__init__.py"))


def _fresh_python(code: str, **env: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        timeout=120,
    )


def _loaded(modules: tuple[str, ...]) -> str:
    """Code that prints which of ``modules`` the interpreter has loaded."""
    return f"print(*sorted(m for m in {modules!r} if m in sys.modules))\n"


def test_lint_cli_does_not_load_the_simulator() -> None:
    proc = _fresh_python(
        "import sys\n"
        "import repro.lint.cli\n" + _loaded(("scipy", "networkx", "repro.core"))
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_on_its_own(name: str) -> None:
    proc = _fresh_python(f"import repro.{name}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["repro.serve.server", "repro.overlay.flooding"])
def test_serving_modules_load_no_generator_or_heavy_deps(module: str) -> None:
    proc = _fresh_python(
        f"import sys\nimport {module}\n"
        + _loaded(("scipy", "networkx", "repro.tracegen"))
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_warm_service_start_loads_no_scipy_or_networkx(warm_service_cache) -> None:
    proc = _fresh_python(
        "import sys\n"
        "from repro.serve.state import ServiceConfig, ServiceState\n"
        f"with ServiceState.from_config(ServiceConfig(n_nodes={SERVICE_NODES})):\n"
        "    pass\n" + _loaded(("scipy", "networkx")),
        REPRO_CACHE_DIR=str(warm_service_cache.path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
