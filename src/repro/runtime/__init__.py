"""Deterministic parallel experiment runtime.

Three cooperating pieces, each usable on its own:

* :mod:`repro.runtime.parallel` — ``pmap``, a process-pool fan-out
  whose per-task RNGs come from :func:`repro.utils.rng.derive`, so the
  result is bitwise-identical for any worker count.
* :mod:`repro.runtime.shm` — publishes a topology's flat CSR arrays
  and posting-list shards to POSIX shared memory so workers attach the
  ~1M-element arrays instead of unpickling them per task.
* :mod:`repro.runtime.cache` — a content-addressed on-disk artifact
  cache keyed by a stable digest of the frozen config dataclasses, so
  repeated runs skip topology/trace regeneration.
* :mod:`repro.runtime.sanitize` — the ``REPRO_SANITIZE=shm`` write
  sanitizer: read-only attached arrays, poison-on-release scratch
  tracking, and per-task leak guards, so a write to an attached view
  or a stale scratch read faults in CI instead of corrupting results.

See docs/performance.md for the architecture and invalidation rules.
"""

from __future__ import annotations

from repro.runtime.cache import (
    CacheInfo,
    cache_dir,
    cache_enabled,
    cache_info,
    cached_call,
    clear_cache,
    config_digest,
)
from repro.runtime.parallel import pmap, resolve_workers
from repro.runtime.sanitize import (
    freeze,
    freeze_artifact,
    sanitize_faults,
    scratch_alloc,
    scratch_release,
    shm_sanitize_enabled,
)
from repro.runtime.shm import (
    ShardedPostings,
    ShardedPostingsSpec,
    SharedTopology,
    SharedTopologySpec,
    attach_postings,
    attach_topology,
)

__all__ = [
    "CacheInfo",
    "ShardedPostings",
    "ShardedPostingsSpec",
    "SharedTopology",
    "SharedTopologySpec",
    "attach_postings",
    "attach_topology",
    "cache_dir",
    "cache_enabled",
    "cache_info",
    "cached_call",
    "clear_cache",
    "config_digest",
    "freeze",
    "freeze_artifact",
    "pmap",
    "resolve_workers",
    "sanitize_faults",
    "scratch_alloc",
    "scratch_release",
    "shm_sanitize_enabled",
]
