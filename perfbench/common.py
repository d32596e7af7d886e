"""Shared pieces of the benchmark: paths, child-process environment,
seeds, the serve fixture, and small statistics helpers.

Everything the benchmark writes lives under ``.perfbench/`` at the
checkout root (artifact cache, ready files, span dumps), so a run
reads and writes only inside its checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CACHE_DIR = WORK / "cache"
PINS = Path(__file__).resolve().parent / "pins.json"

#: The fixture `repro serve` loads by default (and CI serve-smoke uses).
N_NODES = 5_000
FIXTURE_SEED = 0

#: Rows of the untimed warm-up stream: 20,000 uniform draws over 5,000
#: sources see ~98% of them, so a cache sized for every source starts
#: the timed phase in its steady state.
WARMUP_ROWS = 20_000
#: Rows per warm-up request (the protocol allows 512).
WARMUP_BATCH = 500


@dataclass(frozen=True)
class Workload:
    """One traffic mix against `repro serve`."""

    name: str
    #: Query rows per ``/search`` body.
    batch: int
    ttl_schedule: tuple[int, ...]
    #: Distinct workload queries the Zipf draw ranges over.
    pool: int
    #: Offered rate of the fixed-rate phase (requests per second).
    fixed_qps: float
    #: Latency limit of the SLO search, on the reported tail quantile.
    slo_ms: float
    #: Length of one SLO-search step: ~1,000 requests near the knee of
    #: `serve-point`, ~150 near that of `serve-batch` (run-time budget).
    step_s: float


WORKLOADS = {
    "serve-point": Workload(
        name="serve-point", batch=1, ttl_schedule=(3,), pool=64,
        fixed_qps=300.0, slo_ms=50.0, step_s=1.0,
    ),
    "serve-batch": Workload(
        name="serve-batch", batch=32, ttl_schedule=(1, 2, 3, 5), pool=16_384,
        fixed_qps=15.0, slo_ms=250.0, step_s=4.0,
    ),
}

#: Tail quantile reported and used for the SLO.  The highest quantile
#: with >= 10 samples beyond it on both workloads' fixed phases.
TAIL_Q = 0.95


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "serve" / "server.py").is_file()


def use_program() -> None:
    """Make ``import repro`` load the checkout's sources and cache."""
    os.environ["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    os.environ.pop("REPRO_CACHE", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources and cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    env.pop("REPRO_CACHE", None)
    env.pop("REPRO_SANITIZE", None)
    return env


def phase_seed(seed: int, phase: str) -> int:
    """Independent integer seed of one stream (warm-up, fixed, step k)."""
    digest = hashlib.sha256(f"perfbench/{seed}/{phase}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``nan`` for no values)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(max(1, math.ceil(q * len(ordered) - 1e-9)), len(ordered))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """Median (``nan`` for no values)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def shm_segments() -> set[str]:
    """Names currently in ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def load_pins() -> dict:
    """Pinned reply-stream and curve digests shipped with the benchmark."""
    return json.loads(PINS.read_text()) if PINS.is_file() else {}
