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

__all__: list[str] = []
