"""Unstructured-network facade: topology + content + search.

Binds a :class:`~repro.overlay.topology.Topology` to a
:class:`~repro.overlay.content.SharedContentIndex` (one overlay node
per trace peer) and exposes the two unstructured search primitives the
paper discusses — TTL flooding and k-walker random walks — with full
message accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.overlay.batch import BatchOutcome, BatchQueryEngine
from repro.overlay.content import SharedContentIndex
from repro.overlay.flooding import flood
from repro.overlay.messages import QueryHit, QueryMessage
from repro.overlay.random_walk import random_walk
from repro.overlay.topology import Topology

if TYPE_CHECKING:
    from repro.tracegen.gnutella_trace import GnutellaShareTrace

__all__ = ["SearchOutcome", "UnstructuredNetwork"]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one unstructured search.

    ``hit_peers[j]`` is the peer holding ``hit_instances[j]``; the
    deduplicated responder set is derived lazily, since most callers
    only read ``n_results``/``messages``.
    """

    source: int
    terms: tuple[str, ...]
    hit_instances: np.ndarray
    hit_peers: np.ndarray
    peers_probed: int
    messages: int

    @property
    def n_results(self) -> int:
        """Number of matching files returned (Loo et al. rare-query metric)."""
        return self.hit_instances.size

    @property
    def succeeded(self) -> bool:
        """Did the search return at least one result?"""
        return self.n_results > 0

    @cached_property
    def responding_peers(self) -> np.ndarray:
        """Distinct peers that returned at least one result."""
        return np.unique(self.hit_peers)


class UnstructuredNetwork:
    """A Gnutella-like network over a share trace."""

    def __init__(self, topology: Topology, content: SharedContentIndex) -> None:
        if topology.n_nodes != content.n_peers:
            raise ValueError(
                f"topology has {topology.n_nodes} nodes but the trace has "
                f"{content.n_peers} peers"
            )
        self.topology = topology
        self.content = content
        self._batch_engine: BatchQueryEngine | None = None

    @property
    def n_peers(self) -> int:
        """Number of peers (= overlay nodes)."""
        return self.topology.n_nodes

    def _outcome(
        self,
        source: int,
        terms: list[str],
        probed_mask: np.ndarray,
        n_probed: int,
        messages: int,
    ) -> SearchOutcome:
        hits = self.content.peer_results(terms, probed_mask)
        return SearchOutcome(
            source=source,
            terms=tuple(terms),
            hit_instances=hits,
            hit_peers=self.content.instance_peer[hits],
            peers_probed=n_probed,
            messages=messages,
        )

    def query_flood(self, source: int, terms: list[str], ttl: int) -> SearchOutcome:
        """Flood ``terms`` from ``source`` with the given TTL."""
        result = flood(self.topology, source, ttl)
        probed = result.depth >= 0
        return self._outcome(source, terms, probed, result.n_reached, result.messages)

    def query_walk(
        self,
        source: int,
        terms: list[str],
        *,
        walkers: int = 16,
        ttl: int = 1024,
        seed: int | np.random.Generator = 0,
    ) -> SearchOutcome:
        """Search with k random walkers from ``source``."""
        result = random_walk(
            self.topology, source, walkers=walkers, ttl=ttl, seed=seed
        )
        probed = np.zeros(self.n_peers, dtype=bool)
        probed[result.visited] = True
        return self._outcome(source, terms, probed, result.n_visited, result.messages)

    def batch_engine(self) -> BatchQueryEngine:
        """The network's persistent batched query engine.

        Lazily constructed and then reused, so the engine's flood
        cache keeps accumulating BFS results across batches.
        """
        if self._batch_engine is None:
            self._batch_engine = BatchQueryEngine(self.topology, self.content)
        return self._batch_engine

    def query_batch(
        self,
        sources: np.ndarray,
        queries: Sequence[Sequence[str]],
        *,
        ttl: int = 3,
        ttl_schedule: tuple[int, ...] | None = None,
        min_results: int = 1,
        n_workers: int = 1,
    ) -> BatchOutcome:
        """Evaluate a workload of flood queries in one batched pass.

        ``queries[i]`` floods from ``sources[i]``.  With the default
        single-TTL schedule each row reproduces
        ``query_flood(sources[i], queries[i], ttl)`` bitwise; passing
        ``ttl_schedule`` reproduces ``expanding_ring_search`` instead
        (cumulative messages, final-ring results).  ``n_workers > 1``
        chunks the batch over shared-memory workers with identical
        results at every worker count.
        """
        schedule = ttl_schedule if ttl_schedule is not None else (int(ttl),)
        return self.batch_engine().evaluate(
            sources,
            queries,
            ttl_schedule=schedule,
            min_results=min_results,
            n_workers=n_workers,
        )

    def answer(
        self, message: QueryMessage, peer: int, trace: GnutellaShareTrace
    ) -> QueryHit:
        """Protocol-level view: one peer's QueryHit for a query message.

        File names come from ``trace``, the share trace the content
        index was built from; the index itself keeps no names.
        """
        mask = np.zeros(self.n_peers, dtype=bool)
        mask[peer] = True
        hits = self.content.peer_results(list(message.terms), mask)
        names = tuple(trace.names.lookup(int(trace.name_ids[i])) for i in hits)
        return QueryHit(guid=message.guid, responder=peer, file_names=names)
