"""Sharded CSR topology: node-range partitions of the flood graph.

A million-node CSR no longer fits one comfortable shared-memory
segment, and a single process's BFS gather becomes the wall-clock
floor.  This module partitions a :class:`~repro.overlay.topology.Topology`
into contiguous node ranges — each shard owns the CSR rows of its
range (local offsets, global neighbor ids) — and runs the flood BFS
*shard-parallel*: every level, each shard expands only the frontier
nodes it owns and hands back the deduplicated target set, and the
coordinator merges those exchanges into the global visited/depth maps
before the next level starts.

The decomposition is exact, not approximate.  The flat kernel
(:func:`~repro.overlay.flooding.flood_depths`) computes a level's new
frontier as "gather all senders' neighbors, drop visited, dedup via a
scratch mask, flatnonzero" — and flatnonzero yields the frontier
*sorted*.  Here each shard dedups its own gathered targets
(:func:`expand_shard` returns them sorted-unique), the coordinator
unions them through the same scratch mask, and flatnonzero again
yields the identical sorted frontier.  Message accounting sums each
shard's gathered-target count, which partitions the flat kernel's
count exactly.  Depth maps and message counts are therefore bitwise
identical at every shard count, including ``n_shards=1``.

Only lossless floods run sharded (the deterministic fast path every
cache and batch consumer uses); ``p_loss`` floods stay on
:func:`~repro.overlay.flooding.flood_depths`.

The shared-memory layout of a shard set lives in
:mod:`repro.runtime.shm` and the process-parallel driver (a persistent
pool expanding shards concurrently) in :mod:`repro.runtime.shards`;
this module is pure numpy so the overlay layer never imports the
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs import metrics
from repro.overlay.flooding import (
    DEPTH_DTYPE,
    DepthEntry,
    _check_depth_horizon,
)
from repro.overlay.topology import INDEX_DTYPE, Topology, shard_bounds
from repro.utils.stats import ragged_arange

__all__ = [
    "ShardSet",
    "TopologyShard",
    "expand_shard",
    "flood_depths_sharded",
    "partition_topology",
    "sharded_bfs_entry",
]

#: One shard's level expansion: ``(unique_targets, n_messages, n_remote)``.
ExpandResult = tuple[np.ndarray, int, int]
#: Exchange callback: expand every shard's senders for one level.
ExpandFn = Callable[[Sequence[np.ndarray]], "list[ExpandResult]"]


@dataclass(frozen=True)
class TopologyShard:
    """CSR rows of one contiguous node range ``[lo, hi)``.

    ``offsets`` is re-based so ``offsets[0] == 0`` (entry counts stay
    within :data:`~repro.overlay.topology.INDEX_DTYPE` per shard even
    when the *global* entry count would not); ``neighbors`` keeps
    global node ids, so expansion needs no id translation.
    """

    lo: int
    hi: int
    offsets: np.ndarray
    neighbors: np.ndarray

    @property
    def n_local(self) -> int:
        """Number of nodes this shard owns."""
        return self.hi - self.lo

    @property
    def n_entries(self) -> int:
        """Directed CSR entries stored in this shard."""
        return self.neighbors.size


@dataclass(frozen=True)
class ShardSet:
    """A topology partitioned into contiguous node-range shards.

    ``bounds[s]:bounds[s+1]`` is shard ``s``'s node range.  ``forwards``
    stays global (1 B/node) because the coordinator filters senders
    before the exchange — workers never consult it.
    ``boundary_counts[s, t]`` counts the directed CSR entries whose
    source lies in shard ``s`` and target in shard ``t``: the
    boundary-edge index bounding how much frontier a shard can ever
    push into another, used to size/validate exchanges and to report
    the cut structure.
    """

    bounds: np.ndarray
    forwards: np.ndarray
    shards: tuple[TopologyShard, ...]
    boundary_counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Total node count across shards."""
        return int(self.bounds[-1])

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def n_boundary_entries(self) -> int:
        """Directed CSR entries crossing a shard boundary."""
        total = int(self.boundary_counts.sum())
        local = int(np.trace(self.boundary_counts))
        return total - local

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owning shard index of each node id."""
        return np.searchsorted(self.bounds, nodes, side="right") - 1

    def flat(self) -> Topology:
        """A one-shard set as a zero-copy flat :class:`Topology` view.

        The shard's offsets start at 0 and its neighbors are global ids,
        so the flat kernels run on its arrays unchanged.
        """
        if self.n_shards != 1:
            raise ValueError(
                f"a flat view needs exactly one shard, not {self.n_shards}"
            )
        shard = self.shards[0]
        return Topology(shard.offsets, shard.neighbors, self.forwards)


def partition_topology(topology: Topology, n_shards: int) -> ShardSet:
    """Split a topology into ``n_shards`` contiguous node-range shards.

    Each shard's arrays are plain slices of the CSR (re-based offsets),
    so reassembling the shards in order reproduces the input arrays
    exactly.  Per-shard entry counts are guarded against
    :data:`~repro.overlay.topology.INDEX_DTYPE` overflow — the shard
    layout is precisely what lets a future global entry count exceed
    the 32-bit ceiling, so the invariant moves to the shard level.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n = topology.n_nodes
    bounds = shard_bounds(n, n_shards)
    limit = int(np.iinfo(INDEX_DTYPE).max)
    shards: list[TopologyShard] = []
    n_effective = bounds.size - 1
    boundary = np.zeros((n_effective, n_effective), dtype=np.int64)
    for s in range(n_effective):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        start, stop = int(topology.offsets[lo]), int(topology.offsets[hi])
        if stop - start > limit:
            raise OverflowError(
                f"shard {s} (nodes [{lo}, {hi})) holds {stop - start} CSR "
                f"entries, exceeding the index dtype {INDEX_DTYPE.name} "
                f"(max {limit}); use more shards or widen INDEX_DTYPE"
            )
        offsets = (topology.offsets[lo : hi + 1] - start).astype(INDEX_DTYPE)
        neighbors = topology.neighbors[start:stop]
        shards.append(
            TopologyShard(lo=lo, hi=hi, offsets=offsets, neighbors=neighbors)
        )
        boundary[s] = np.bincount(
            np.searchsorted(bounds, neighbors, side="right") - 1,
            minlength=n_effective,
        )
    return ShardSet(
        bounds=bounds,
        forwards=topology.forwards,
        shards=tuple(shards),
        boundary_counts=boundary,
    )


def expand_shard(shard: TopologyShard, senders: np.ndarray) -> ExpandResult:
    """One shard's level expansion: gather + local dedup.

    ``senders`` are global node ids within ``[lo, hi)`` (sorted — they
    come from a flatnonzero frontier).  Returns the sorted-unique
    gathered targets (global ids), the gathered-target count (the
    shard's share of the level's message cost, duplicates included),
    and how many of the unique targets fall outside the shard's own
    range (the frontier crossings the exchange actually has to ship).
    """
    local = senders - shard.lo
    lengths = shard.offsets[local + 1] - shard.offsets[local]
    gather = np.repeat(shard.offsets[local], lengths) + ragged_arange(lengths)
    targets = shard.neighbors[gather]
    unique = np.unique(targets)
    n_local = int(
        np.searchsorted(unique, shard.hi) - np.searchsorted(unique, shard.lo)
    )
    return unique, int(targets.size), int(unique.size - n_local)


def _serial_expand(
    shards: tuple[TopologyShard, ...], parts: Sequence[np.ndarray]
) -> list[ExpandResult]:
    """In-process exchange: expand each non-empty shard in order."""
    empty = np.empty(0, dtype=np.int64)
    return [
        expand_shard(shard, senders) if senders.size else (empty, 0, 0)
        for shard, senders in zip(shards, parts)
    ]


def _sharded_bfs(
    shard_set: ShardSet,
    sources: np.ndarray,
    max_depth: int,
    expand: ExpandFn | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Shard-parallel BFS with per-level cumulative accounting.

    Mirrors ``FloodDepthCache._bfs_with`` level for level (and thereby
    :func:`~repro.overlay.flooding.flood_depths`): the per-level
    frontier, depth map, message count, and reached count are bitwise
    identical for every shard count and every ``expand`` callback that
    faithfully runs :func:`expand_shard` per shard.
    """
    registry = metrics()
    registry.inc("shard.flood.calls")
    n = shard_set.n_nodes
    bounds = shard_set.bounds
    forwards = shard_set.forwards
    if expand is None:
        shards = shard_set.shards

        def expand_serial(parts: Sequence[np.ndarray]) -> list[ExpandResult]:
            return _serial_expand(shards, parts)

        expand = expand_serial
    depth = np.full(n, -1, dtype=DEPTH_DTYPE)
    visited = np.zeros(n, dtype=bool)
    visited[sources] = True
    depth[sources] = 0
    frontier = np.flatnonzero(visited)
    level_mask = np.zeros(n, dtype=bool)
    cum_messages = np.zeros(max_depth + 1, dtype=np.int64)
    cum_reached = np.zeros(max_depth + 1, dtype=np.int64)
    cum_reached[0] = frontier.size
    messages = 0
    exhausted = False
    for level in range(1, max_depth + 1):
        if frontier.size == 0:
            exhausted = True
        else:
            senders = frontier if level == 1 else frontier[forwards[frontier]]
            if senders.size == 0:
                exhausted = True
            else:
                # The frontier is sorted, so one searchsorted against the
                # shard bounds splits the senders into per-shard runs.
                cuts = np.searchsorted(senders, bounds)
                parts = [
                    senders[cuts[s] : cuts[s + 1]]
                    for s in range(shard_set.n_shards)
                ]
                results = expand(parts)
                level_remote = 0
                for targets, n_messages, n_remote in results:
                    messages += n_messages
                    level_remote += n_remote
                    candidates = targets[~visited[targets]]
                    level_mask[candidates] = True
                registry.inc("shard.exchange.remote_targets", level_remote)
                new = np.flatnonzero(level_mask)
                level_mask[new] = False
                visited[new] = True
                depth[new] = level
                frontier = new
        if exhausted:
            cum_messages[level:] = messages
            cum_reached[level:] = cum_reached[level - 1]
            break
        cum_messages[level] = messages
        cum_reached[level] = cum_reached[level - 1] + frontier.size
    if not exhausted and frontier.size == 0:
        exhausted = True
    registry.inc("shard.exchange.messages", messages)
    return depth, cum_messages, cum_reached, exhausted


def flood_depths_sharded(
    shard_set: ShardSet,
    sources: np.ndarray | int,
    max_depth: int,
    *,
    expand: ExpandFn | None = None,
) -> tuple[np.ndarray, int]:
    """Shard-parallel ``flood_depths``: ``(depth, messages)``.

    Bitwise identical to
    ``flood_depths(topology, sources, max_depth)`` on the unsharded
    topology, for any shard count.  ``expand`` overrides the exchange
    step (the process-parallel runner does); ``None`` expands every
    shard in-process.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    _check_depth_horizon(max_depth)
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    depth, cum_messages, _, _ = _sharded_bfs(shard_set, sources, max_depth, expand)
    return depth, int(cum_messages[-1])


def sharded_bfs_entry(
    shard_set: ShardSet,
    source: int,
    max_depth: int,
    *,
    expand: ExpandFn | None = None,
) -> DepthEntry:
    """One source's full-horizon sharded BFS as a cacheable entry.

    Field-for-field equal to ``FloodDepthCache._bfs`` on the unsharded
    topology, so a :class:`~repro.overlay.flooding.FloodDepthCache`
    backed by a sharded provider serves bitwise-identical answers.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    _check_depth_horizon(max_depth)
    sources = np.asarray([source], dtype=np.int64)
    depth, cum_messages, cum_reached, exhausted = _sharded_bfs(
        shard_set, sources, max_depth, expand
    )
    return DepthEntry(
        source=int(source),
        depth=depth,
        cum_messages=cum_messages,
        cum_reached=cum_reached,
        exhausted=exhausted,
    )
