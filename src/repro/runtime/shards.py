"""Process-parallel flood driver over the sharded shm topology.

:class:`ShardedFloodRunner` drives the shard-parallel BFS of
:mod:`repro.overlay.sharding` over a *persistent* worker pool: every
BFS level, each shard's frontier slice is submitted as one task
(local CSR gather + dedup in the worker, against the segments
:class:`~repro.runtime.shm.SharedTopology` published), and the level
barrier — the frontier exchange — merges the returned sorted-unique
target sets on the coordinator.  Results are merged in shard order, so
the output is bitwise identical to the serial sharded driver, which is
itself bitwise identical to the flat kernel (see
:mod:`repro.overlay.sharding`).  The pool persists across floods
because a Fig. 8 run issues hundreds of them — one pool per flood
would pay process start-up per BFS.

The runner also implements the ``bfs_entry`` provider hook of
:class:`~repro.overlay.flooding.FloodDepthCache`, so the depth cache
and :class:`~repro.overlay.batch.BatchQueryEngine` can run their BFS
sharded without knowing about this module.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.obs import metrics, span
from repro.overlay.flooding import DepthEntry
from repro.overlay.sharding import (
    ExpandResult,
    ShardSet,
    expand_shard,
    flood_depths_sharded,
    partition_topology,
    sharded_bfs_entry,
)
from repro.overlay.topology import Topology
from repro.runtime.parallel import _mp_context, resolve_workers
from repro.runtime.shm import SharedTopology, SharedTopologySpec, attach_topology

__all__ = ["ShardedFloodRunner"]


def _expand_task(
    spec: SharedTopologySpec, shard_index: int, senders: np.ndarray
) -> ExpandResult:
    """Worker task: one shard's level expansion against shared memory."""
    return expand_shard(attach_topology(spec).shards[shard_index], senders)


class ShardedFloodRunner:
    """Shard-parallel flood driver with a persistent worker pool.

    ``n_workers <= 1`` (or a single shard) expands in-process —
    identical arrays, identical arithmetic, no pool, no shm publish.
    Otherwise the shard set is published once and a pool of
    ``min(n_workers, n_shards)`` processes expands shard frontiers
    concurrently; the per-level merge order is fixed (shard 0, 1, ...),
    so every worker count is bitwise identical.

    Use as a context manager, or call :meth:`close`; the runner owns
    its pool and (when parallel) its published segments.
    """

    def __init__(
        self,
        source: Topology | ShardSet,
        *,
        n_shards: int | None = None,
        n_workers: int = 1,
    ) -> None:
        if isinstance(source, ShardSet):
            shard_set = source
        else:
            shard_set = partition_topology(source, n_shards or 1)
        self.n_workers = min(resolve_workers(n_workers), shard_set.n_shards)
        self._share: SharedTopology | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        if self.n_workers > 1:
            self._share = SharedTopology(shard_set)
            shard_set = self._share.shard_set
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=_mp_context()
            )
        self.shard_set = shard_set

    @property
    def n_nodes(self) -> int:
        """Node count of the underlying topology."""
        return self.shard_set.n_nodes

    @property
    def n_shards(self) -> int:
        """Shard count."""
        return self.shard_set.n_shards

    def _expand(self, parts: Sequence[np.ndarray]) -> list[ExpandResult]:
        """One level's frontier exchange over the pool."""
        assert self._pool is not None and self._share is not None
        empty = np.empty(0, dtype=np.int64)
        results: list[ExpandResult] = [(empty, 0, 0)] * len(parts)
        futures = {
            self._pool.submit(_expand_task, self._share.spec, s, senders): s
            for s, senders in enumerate(parts)
            if senders.size
        }
        for future, s in futures.items():
            results[s] = future.result()
        metrics().inc("shard.exchange.rounds")
        return results

    def flood_depths(
        self, sources: np.ndarray | int, max_depth: int
    ) -> tuple[np.ndarray, int]:
        """Sharded :func:`~repro.overlay.flooding.flood_depths`."""
        self._check_open()
        expand = self._expand if self._pool is not None else None
        with span(
            "shard.flood", shards=self.n_shards, workers=self.n_workers
        ):
            return flood_depths_sharded(
                self.shard_set, sources, max_depth, expand=expand
            )

    def bfs_entry(self, source: int, max_depth: int) -> DepthEntry:
        """Provider hook for :class:`~repro.overlay.flooding.FloodDepthCache`."""
        self._check_open()
        expand = self._expand if self._pool is not None else None
        # A timer, not a span: this runs on every depth-cache miss of a
        # long-lived service, and the span store keeps every record.
        with metrics().timer("shard.bfs_entry"):
            return sharded_bfs_entry(
                self.shard_set, source, max_depth, expand=expand
            )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedFloodRunner is closed")

    def close(self) -> None:
        """Shut the pool down and unlink the published segments."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._share is not None:
            self._share.close()
            self._share = None

    def __enter__(self) -> "ShardedFloodRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
