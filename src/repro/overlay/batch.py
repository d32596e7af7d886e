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
bitwise-identical to the per-query path.  Each query's evaluation is a
pure function of ``(source, query key)`` over the engine's one content
index, so a batch answers the same whole or split into parts: the
serving layer's micro-batcher relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs import metrics
from repro.overlay.content import QueryKey, SharedContentIndex
from repro.overlay.flooding import DEPTH_DTYPE, FloodDepthCache
from repro.overlay.topology import Topology

__all__ = ["BatchOutcome", "BatchQueryEngine"]

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

    The one evaluation core: ``match_key`` and ``cache.entry`` are
    called once per row, and each row is a pure function of its
    ``(source, key)``.
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


class BatchQueryEngine:
    """Workload-scale evaluator over one topology + content index.

    Holds a persistent :class:`FloodDepthCache`, so successive batches
    (strategy comparisons, sensitivity sweeps) keep reusing BFS
    results.  One engine per ``(topology, content)`` pair; see
    :meth:`UnstructuredNetwork.batch_engine` for the cached accessor.
    """

    def __init__(self, topology: Topology, content: SharedContentIndex) -> None:
        if topology.n_nodes != content.n_peers:
            raise ValueError(
                f"topology has {topology.n_nodes} nodes but the trace has "
                f"{content.n_peers} peers"
            )
        self.topology = topology
        self.content = content
        self.flood_cache = FloodDepthCache(topology)

    def evaluate(
        self,
        sources: np.ndarray,
        queries: Sequence[Sequence[str]],
        *,
        ttl_schedule: tuple[int, ...],
        min_results: int = 1,
    ) -> BatchOutcome:
        """Evaluate ``queries[i]`` flooded from ``sources[i]``.

        A single-TTL schedule reproduces :meth:`query_flood` exactly;
        a multi-TTL schedule reproduces ``expanding_ring_search``
        (cumulative messages, final-ring results).
        """
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if sources.size != len(queries):
            raise ValueError(
                f"{sources.size} sources for {len(queries)} queries"
            )
        _validate_schedule(ttl_schedule, min_results)
        keys = [self.content.query_key(q) for q in queries]
        return self.evaluate_keys(
            sources, keys, ttl_schedule=ttl_schedule, min_results=min_results
        )

    def evaluate_keys(
        self,
        sources: np.ndarray,
        keys: Sequence[QueryKey | None],
        *,
        ttl_schedule: tuple[int, ...],
        min_results: int = 1,
    ) -> BatchOutcome:
        """:meth:`evaluate` over pre-canonicalized query keys."""
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        _validate_schedule(ttl_schedule, min_results)
        registry = metrics()
        registry.inc("batch.batches")
        registry.inc("batch.queries", int(sources.size))
        with registry.timer("batch.evaluate"):
            # Warm the match cache for every distinct miss in one
            # batch-kernel pass; the core below then only ever takes
            # cache hits.
            self.content.prefetch_keys([k for k in keys if k is not None])
            return _evaluate_keys(
                self.flood_cache,
                self.content.match_key,
                self.content.instance_peer,
                sources,
                keys,
                ttl_schedule=ttl_schedule,
                min_results=min_results,
            )
