"""Runtime write-sanitizer for the parallel boundary (``REPRO_SANITIZE``).

The worker boundary's contract: workers treat attached shm/mmap
segments as read-only, and scratch buffers never leak state across
tasks.  This module enforces it at runtime: a write to an attached
view raises where it happens, and a stale scratch read turns into
loudly wrong values instead of a silently plausible result.  Two
layers:

* **Freezing** — :func:`freeze` marks an array read-only so numpy
  raises ``ValueError`` on any write; the shm/mmap attach paths call
  it unconditionally (not only in sanitize mode), and in sanitize
  mode :func:`freeze_artifact` extends the same guarantee to every array
  inside a cached artifact, including the small ones the blob store
  keeps inline in the skeleton pickle.
* **Scratch tracking** — kernels allocate reusable paint buffers via
  :func:`scratch_alloc` and hand them back via :func:`scratch_release`.
  With ``REPRO_SANITIZE=shm`` each release poisons the buffer with
  ``0xA5`` bytes, so a stale read of released scratch produces loudly
  wrong values instead of silently plausible ones, and
  :func:`task_guard` (wrapped around every ``pmap`` task) records a
  fault when a task exits with scratch still outstanding.

The mode switch is an environment variable so forked pool workers
inherit it for free.  Sanitize mode never changes computed values —
the parity suites assert bitwise-identical outputs with it on — it
only converts latent write races into immediate faults.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Any, Iterator

import numpy as np

from repro.obs import metrics

__all__ = [
    "POISON_BYTE",
    "SANITIZE_ENV",
    "freeze",
    "freeze_artifact",
    "sanitize_faults",
    "scratch_alloc",
    "scratch_outstanding",
    "scratch_release",
    "shm_sanitize_enabled",
    "task_guard",
]

#: Environment switch; forked workers inherit the parent's setting.
SANITIZE_ENV = "REPRO_SANITIZE"
_ON_VALUES = frozenset({"shm", "all", "1", "on"})

#: Fill byte for released scratch: 0xA5 is a visually obvious pattern
#: that decodes to large odd integers / ``True`` in every kernel dtype,
#: so a stale read breaks bitwise parity immediately.
POISON_BYTE = 0xA5

#: Scratch buffers allocated but not yet released (sanitize mode only).
_outstanding: dict[int, np.ndarray] = {}
_fault_count = 0


def shm_sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` selects shm write-sanitizing."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _ON_VALUES


def sanitize_faults() -> int:
    """Sanitizer faults recorded in this process since import."""
    return _fault_count


def _record_fault(kind: str) -> None:
    global _fault_count
    _fault_count += 1
    registry = metrics()
    registry.inc("sanitize.faults")
    registry.inc(f"sanitize.fault.{kind}")


def freeze(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only (in place) and return it.

    Idempotent; every attach/export path routes through here so the
    read-only contract is enforced by numpy, not by convention.
    """
    array.flags.writeable = False
    metrics().inc("sanitize.frozen_arrays")
    return array


def freeze_artifact(value: Any, _seen: set[int] | None = None) -> Any:
    """Recursively freeze every ndarray reachable inside ``value``.

    Called on cache-loaded artifacts under sanitize mode: large arrays
    come back as read-only ``mmap_mode="r"`` views already, but small
    arrays travel inline in the skeleton pickle and would otherwise be
    writable.  Walks dataclasses, dicts, and sequences; cycles and
    shared substructure are visited once.
    """
    seen = _seen if _seen is not None else set()
    if id(value) in seen:
        return value
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            freeze(value)
        return value
    if is_dataclass(value) and not isinstance(value, type):
        for field in fields(value):
            freeze_artifact(getattr(value, field.name, None), seen)
        return value
    if isinstance(value, dict):
        for item in value.values():
            freeze_artifact(item, seen)
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            freeze_artifact(item, seen)
        return value
    return value


def scratch_alloc(shape: int | tuple[int, ...], dtype: Any) -> np.ndarray:
    """Allocate a zeroed scratch buffer, tracked under sanitize mode."""
    buffer = np.zeros(shape, dtype=dtype)
    if shm_sanitize_enabled():
        _outstanding[id(buffer)] = buffer
        metrics().inc("sanitize.scratch_allocs")
    return buffer


def scratch_release(buffer: np.ndarray) -> None:
    """Return a scratch buffer; poisons it under sanitize mode.

    Releasing a buffer that was never allocated through
    :func:`scratch_alloc` in sanitize mode (or releasing twice) is
    itself a fault: it means the kernel's alloc/release pairing drifted.
    """
    if not shm_sanitize_enabled():
        return
    live = _outstanding.pop(id(buffer), None)
    if live is None:
        _record_fault("unpaired_release")
        return
    try:
        live.view(np.uint8).fill(POISON_BYTE)
    except ValueError:  # pragma: no cover - non-contiguous scratch
        live.fill(live.dtype.type(POISON_BYTE % 2))
    metrics().inc("sanitize.scratch_releases")


def scratch_outstanding() -> int:
    """Number of scratch buffers currently alive (sanitize mode)."""
    return len(_outstanding)


@contextmanager
def task_guard() -> Iterator[None]:
    """Fault if a parallel task exits with scratch still outstanding.

    Scratch leaked across a task boundary is exactly the PR 5 cache
    race shape: the next task on this worker would observe (poisoned)
    state from the previous one.
    """
    if not shm_sanitize_enabled():
        yield
        return
    before = len(_outstanding)
    try:
        yield
    finally:
        if len(_outstanding) > before:
            _record_fault("scratch_leak")
