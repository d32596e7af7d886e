"""Batched query engine: workload-scale evaluation of overlay search.

The scalar path (:meth:`UnstructuredNetwork.query_flood` per query)
re-floods and re-intersects from scratch on every call, even though a
Zipf workload replays the same few distinct queries from a small
source pool.  :class:`BatchQueryEngine` evaluates a whole workload at
once against two shared caches:

* a :class:`~repro.overlay.flooding.FloodDepthCache` — every distinct
  source BFS-es once to the deepest requested TTL, and every ring of
  an expanding-ring schedule is a slice of that one depth map with the
  per-ring message accounting preserved;
* the content index's memoized match cache — every distinct query key
  intersects its posting lists once.

Results come back columnar as a :class:`BatchOutcome` (per-query
success, result counts, message cost, peers probed) instead of a list
of :class:`~repro.overlay.network.SearchOutcome` objects, and are
bitwise-identical to the per-query path at every worker count: each
query's evaluation is a pure function of ``(source, query key)``, so
contiguous chunks fanned out over ``pmap`` workers (topology and
posting arrays attached via :mod:`repro.runtime.shm`) concatenate back
to exactly the serial answer.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.obs import metrics
from repro.overlay.content import (
    PostingShardSet,
    PostingsProvider,
    QueryKey,
    SharedContentIndex,
    intersect_postings_batch,
)
from repro.overlay.flooding import DEPTH_DTYPE, FloodDepthCache
from repro.overlay.topology import Topology

__all__ = ["BatchOutcome", "BatchQueryEngine", "posting_reader"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_DEPTH = np.empty(0, dtype=DEPTH_DTYPE)


@dataclass(frozen=True)
class BatchOutcome:
    """Columnar outcomes of one query batch (row ``i`` = query ``i``).

    Each column is what the corresponding scalar-path object reports:
    ``success[i]`` / ``n_results[i]`` / ``messages[i]`` /
    ``peers_probed[i]`` match ``SearchOutcome`` (or, for multi-ring
    schedules, ``ExpandingRingResult`` with the final ring's result
    count and the cumulative message cost).
    """

    success: np.ndarray
    n_results: np.ndarray
    messages: np.ndarray
    peers_probed: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.success.size

    @property
    def success_rate(self) -> float:
        """Fraction of queries returning at least one result.

        An *empty* batch has no well-defined rate: this returns ``nan``
        rather than a silent 0.0, so a consumer surfacing the value as
        a live metric (the serving layer does) can tell "no traffic"
        from "every query failed".  Callers that want a number must
        check :attr:`n_queries` first.
        """
        if not self.n_queries:
            return float("nan")
        return float(np.count_nonzero(self.success)) / self.n_queries

    @property
    def total_messages(self) -> int:
        """Total message cost of the batch."""
        return int(self.messages.sum())

    @staticmethod
    def empty() -> "BatchOutcome":
        """A zero-query outcome, column dtypes matching any real batch.

        Columns are freshly allocated (never shared module globals), so
        two empty outcomes can't alias each other's arrays.
        """
        return BatchOutcome(
            success=np.empty(0, dtype=bool),
            n_results=np.empty(0, dtype=np.int64),
            messages=np.empty(0, dtype=np.int64),
            peers_probed=np.empty(0, dtype=np.int64),
        )

    @staticmethod
    def concatenate(parts: Sequence["BatchOutcome"]) -> "BatchOutcome":
        """Stitch per-chunk outcomes back into one batch, in order.

        ``concatenate([])`` returns :meth:`empty`, whose column dtypes
        (bool / int64 x3) match every evaluator-produced outcome — so
        concatenating it with non-empty parts never widens or narrows
        a column.
        """
        if not parts:
            return BatchOutcome.empty()
        return BatchOutcome(
            success=np.concatenate([p.success for p in parts]),
            n_results=np.concatenate([p.n_results for p in parts]),
            messages=np.concatenate([p.messages for p in parts]),
            peers_probed=np.concatenate([p.peers_probed for p in parts]),
        )


def posting_reader(postings: PostingsProvider) -> PostingsProvider:
    """The provider the match kernel reads for ``postings``.

    A one-shard set is read through its zero-copy flat view, so the
    kernel slices the published arrays directly instead of gathering
    every distinct term's list into a fresh buffer per call.  Rows read
    this way view the provider's memory: only a consumer whose owner
    outlives them may keep them (the match cache stores copies).
    """
    if isinstance(postings, PostingShardSet) and postings.n_shards == 1:
        return postings.flat()
    return postings


def _validate_schedule(ttl_schedule: tuple[int, ...], min_results: int) -> None:
    """Shared schedule validation, mirroring ``expanding_ring_search``."""
    if min_results < 1:
        raise ValueError("min_results must be positive")
    if not ttl_schedule or any(t < 0 for t in ttl_schedule):
        raise ValueError("ttl_schedule must be non-empty and non-negative")
    if list(ttl_schedule) != sorted(ttl_schedule):
        raise ValueError("ttl_schedule must be non-decreasing")


def _evaluate_keys(
    cache: FloodDepthCache,
    match_key: Callable[[QueryKey], np.ndarray],
    instance_peer: np.ndarray,
    sources: np.ndarray,
    keys: Sequence[QueryKey | None],
    *,
    ttl_schedule: tuple[int, ...],
    min_results: int,
) -> BatchOutcome:
    """Evaluate canonical ``(source, key)`` pairs against shared caches.

    The coordinator and shm workers both run this core — only the
    cache/match providers differ — so serial and parallel evaluation
    are the same code path over the same pure per-query function.
    """
    n = sources.size
    success = np.zeros(n, dtype=bool)
    n_results = np.zeros(n, dtype=np.int64)
    messages = np.zeros(n, dtype=np.int64)
    peers_probed = np.zeros(n, dtype=np.int64)
    max_ttl = int(ttl_schedule[-1])
    for i in range(n):
        key = keys[i]
        hits = _EMPTY if key is None else match_key(key)
        entry = cache.entry(int(sources[i]), max_ttl)
        # Depth of each hit's peer; -1 (unreached) never passes a ring.
        # Stays in the narrow DEPTH_DTYPE — the ring comparisons below
        # never need to widen it.
        hit_depth = (
            entry.depth[instance_peer[hits]] if hits.size else _EMPTY_DEPTH
        )
        total = 0
        count = 0
        ttl = ttl_schedule[0]
        for ttl in ttl_schedule:
            total += entry.messages(ttl)
            if hit_depth.size:
                count = int(
                    np.count_nonzero((hit_depth >= 0) & (hit_depth <= ttl))
                )
            if count >= min_results:
                break
        success[i] = count > 0
        n_results[i] = count
        messages[i] = total
        peers_probed[i] = entry.reached(int(ttl))
    return BatchOutcome(
        success=success,
        n_results=n_results,
        messages=messages,
        peers_probed=peers_probed,
    )


#: Worker-side flood caches, one per attached topology spec, so every
#: chunk a pool worker runs reuses the BFS results of earlier chunks.
#: Bounded: a long-lived worker that evaluates many topologies keeps
#: only the most recent few, so retired topologies' depth maps (and
#: the attached views they pin, which would otherwise block the shm
#: attach-cache LRU from unmapping their segments) are released.
_WORKER_CACHES: "OrderedDict[object, FloodDepthCache]" = OrderedDict()
_WORKER_CACHE_MAX = 4


def _chunk_task(
    chunk: tuple[np.ndarray, list[QueryKey | None]],
    *,
    topo_spec: object,
    post_spec: object,
    ttl_schedule: tuple[int, ...],
    min_results: int,
) -> BatchOutcome:
    """Worker task: evaluate one contiguous slice of the batch.

    Attaches the shared topology and the posting shards, pre-intersects
    the chunk's distinct keys in one batch-kernel pass, then runs the
    same pure core as the serial path with a worker-local flood cache.
    The postings are read through :func:`posting_reader`; the matches
    are task-local, so no cache outlives the mapping they slice.  Flood
    evaluation is deterministic, so the task runs with
    ``needs_rng=False``.
    """
    # Deferred import: repro.runtime sits above the overlay layer.
    from repro.runtime.shm import attach_postings, attach_topology

    sources, keys = chunk
    postings = posting_reader(attach_postings(post_spec))  # type: ignore[arg-type]
    cache = _WORKER_CACHES.get(topo_spec)
    if cache is None:
        cache = FloodDepthCache(attach_topology(topo_spec))  # type: ignore[arg-type]
        _WORKER_CACHES[topo_spec] = cache
        if len(_WORKER_CACHES) > _WORKER_CACHE_MAX:
            _WORKER_CACHES.popitem(last=False)
    else:
        _WORKER_CACHES.move_to_end(topo_spec)
    distinct = [k for k in dict.fromkeys(keys) if k is not None]
    memo: dict[QueryKey, np.ndarray] = dict(
        zip(distinct, intersect_postings_batch(postings, distinct))
    )

    def match_key(key: QueryKey) -> np.ndarray:
        return memo[key]

    return _evaluate_keys(
        cache,
        match_key,
        postings.instance_peer,
        sources,
        keys,
        ttl_schedule=ttl_schedule,
        min_results=min_results,
    )


class BatchQueryEngine:
    """Workload-scale evaluator over one topology + content index.

    Holds a persistent :class:`FloodDepthCache`, so successive batches
    (strategy comparisons, sensitivity sweeps) keep reusing BFS
    results.  One engine per ``(topology, content)`` pair; see
    :meth:`UnstructuredNetwork.batch_engine` for the cached accessor.
    """

    def __init__(
        self,
        topology: Topology,
        content: SharedContentIndex,
        *,
        flood_cache_entries: int = 256,
        postings: PostingsProvider | None = None,
        topo_spec: object | None = None,
    ) -> None:
        if topology.n_nodes != content.n_peers:
            raise ValueError(
                f"topology has {topology.n_nodes} nodes but the trace has "
                f"{content.n_peers} peers"
            )
        if postings is not None and (
            postings.n_terms != content.term_index.n_terms
            or postings.n_instances != content.n_instances
        ):
            raise ValueError(
                f"postings provider covers {postings.n_terms} terms / "
                f"{postings.n_instances} instances but the content index has "
                f"{content.term_index.n_terms} / {content.n_instances}"
            )
        self.topology = topology
        self.content = content
        # Spec of an already-published SharedTopology wrapping the same
        # bytes as ``topology``.  A resident process (the serving loop)
        # publishes once at startup and passes the spec here, so the
        # fan-out path attaches instead of re-exporting the CSR arrays
        # on every batch.  The caller keeps the owner alive for the
        # engine's lifetime.
        self.topo_spec = topo_spec
        # Optional posting-list provider override (e.g. an attached
        # PostingShardSet): the serial path prefetches misses through
        # its posting_reader, and the fan-out path reuses its
        # already-published shm segments instead of re-exporting the
        # dense arrays.
        self.postings = postings
        self.flood_cache = FloodDepthCache(
            topology, max_entries=flood_cache_entries
        )

    def evaluate(
        self,
        sources: np.ndarray,
        queries: Sequence[Sequence[str]],
        *,
        ttl_schedule: tuple[int, ...],
        min_results: int = 1,
        n_workers: int = 1,
    ) -> BatchOutcome:
        """Evaluate ``queries[i]`` flooded from ``sources[i]``.

        A single-TTL schedule reproduces :meth:`query_flood` exactly;
        a multi-TTL schedule reproduces ``expanding_ring_search``
        (cumulative messages, final-ring results).  ``n_workers > 1``
        fans contiguous chunks over a process pool with the topology
        and posting arrays in shared memory; results are
        bitwise-identical at every worker count.
        """
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if sources.size != len(queries):
            raise ValueError(
                f"{sources.size} sources for {len(queries)} queries"
            )
        _validate_schedule(ttl_schedule, min_results)
        # Canonicalize on the coordinator: term strings never cross
        # the process boundary (workers see term-id keys only).
        keys = [self.content.query_key(q) for q in queries]
        return self.evaluate_keys(
            sources,
            keys,
            ttl_schedule=ttl_schedule,
            min_results=min_results,
            n_workers=n_workers,
        )

    def evaluate_keys(
        self,
        sources: np.ndarray,
        keys: Sequence[QueryKey | None],
        *,
        ttl_schedule: tuple[int, ...],
        min_results: int = 1,
        n_workers: int = 1,
    ) -> BatchOutcome:
        """:meth:`evaluate` over pre-canonicalized query keys."""
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        _validate_schedule(ttl_schedule, min_results)
        registry = metrics()
        registry.inc("batch.batches")
        registry.inc("batch.queries", int(sources.size))
        with registry.timer("batch.evaluate"):
            return self._evaluate_keys_inner(
                sources,
                keys,
                ttl_schedule=ttl_schedule,
                min_results=min_results,
                n_workers=n_workers,
            )

    def _evaluate_keys_inner(
        self,
        sources: np.ndarray,
        keys: Sequence[QueryKey | None],
        *,
        ttl_schedule: tuple[int, ...],
        min_results: int,
        n_workers: int,
    ) -> BatchOutcome:
        # Deferred import: repro.runtime sits above the overlay layer.
        from repro.runtime.parallel import resolve_workers

        workers = min(resolve_workers(n_workers), sources.size)
        if workers <= 1 or sources.size <= 1:
            # Warm the match cache for every distinct miss in one
            # batch-kernel pass; the pure core below then only ever
            # takes cache hits.
            postings = self.postings
            self.content.prefetch_keys(
                [k for k in keys if k is not None],
                provider=None if postings is None else posting_reader(postings),
            )
            return _evaluate_keys(
                self.flood_cache,
                self.content.match_key,
                self.content.instance_peer,
                sources,
                keys,
                ttl_schedule=ttl_schedule,
                min_results=min_results,
            )
        from repro.runtime.parallel import pmap
        from repro.runtime.shm import ShardedPostings, SharedTopology

        bounds = np.linspace(0, sources.size, workers + 1).astype(np.int64)
        chunks = [
            (sources[lo:hi], list(keys[lo:hi]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ExitStack() as stack:
            topo_spec = self.topo_spec
            if topo_spec is None:
                topo_spec = stack.enter_context(
                    SharedTopology(self.topology)
                ).spec
            post_spec = getattr(self.postings, "spec", None)
            if post_spec is None:
                # Publish for the workers; an unpublished provider (e.g.
                # a locally-built shard set) keeps its shard layout.
                post_spec = stack.enter_context(
                    ShardedPostings(
                        self.content if self.postings is None else self.postings
                    )
                ).spec
            task = partial(
                _chunk_task,
                topo_spec=topo_spec,
                post_spec=post_spec,
                ttl_schedule=ttl_schedule,
                min_results=min_results,
            )
            parts = pmap(
                task, chunks,
                seed=0, key="query-batch", n_workers=workers, needs_rng=False,
            )
        return BatchOutcome.concatenate(parts)

    def evaluate_flood(
        self,
        sources: np.ndarray,
        queries: Sequence[Sequence[str]],
        *,
        ttl: int,
        n_workers: int = 1,
    ) -> BatchOutcome:
        """Batch equivalent of per-query :meth:`query_flood` calls."""
        return self.evaluate(
            sources, queries, ttl_schedule=(int(ttl),), n_workers=n_workers
        )

    def evaluate_expanding_ring(
        self,
        sources: np.ndarray,
        queries: Sequence[Sequence[str]],
        *,
        ttl_schedule: tuple[int, ...] = (1, 2, 3, 5),
        min_results: int = 1,
        n_workers: int = 1,
    ) -> BatchOutcome:
        """Batch equivalent of per-query ``expanding_ring_search``."""
        return self.evaluate(
            sources,
            queries,
            ttl_schedule=ttl_schedule,
            min_results=min_results,
            n_workers=n_workers,
        )
