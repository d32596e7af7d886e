"""Resident state of the overlay query service.

:class:`ServiceState` is the load-once half of the serving story: it
builds (or loads from the mmap-blob artifact cache) the topology and
content index, publishes them to shared memory **once**, and holds the
owner handles — :class:`~repro.runtime.shm.SharedTopology` and
:class:`~repro.runtime.shm.ShardedPostings` — resident for the process
lifetime.  Every request then dispatches through one
persistent :class:`~repro.overlay.batch.BatchQueryEngine` whose flood
and match caches warm monotonically across requests.

Owner handles registered here are exactly what
:func:`repro.runtime.shm.cleanup_on_signal` unlinks if the process is
killed mid-request; :meth:`ServiceState.close` is the graceful twin.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.obs import get_logger, span
from repro.overlay.batch import BatchQueryEngine, posting_reader
from repro.overlay.content import SharedContentIndex, partition_postings
from repro.overlay.topology import Topology
from repro.runtime.shm import ShardedPostings, SharedTopology

__all__ = ["ServiceConfig", "ServiceState"]

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """What one service process loads and how it evaluates.

    The trace is generated with ``n_peers == n_nodes`` so every overlay
    node shares content — the engine requires the two populations to
    coincide.  ``n_shards > 1`` partitions the posting lists into that
    many term-range shards; outcomes are bitwise identical at every
    setting (the engine's equivalence guarantee), so these are capacity
    knobs, not semantics knobs.
    """

    n_nodes: int = 5_000
    seed: int = 0
    n_shards: int = 1
    #: Engine fan-out width per micro-batch (1 = in-process serial,
    #: which is right for the small batches admission control forms).
    engine_workers: int = 1
    flood_cache_entries: int = 256

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.n_shards < 1 or self.engine_workers < 1:
            raise ValueError("shard/worker counts must be positive")


class ServiceState:
    """Artifacts + engine held resident by one serving process.

    Construct from in-memory artifacts (tests hand in small fixtures)
    or via :meth:`from_config`, which goes through the cached builders.
    Use as a context manager or call :meth:`close`; closing unlinks the
    published shared-memory segments.
    """

    def __init__(
        self,
        topology: Topology,
        content: SharedContentIndex,
        *,
        n_shards: int = 1,
        engine_workers: int = 1,
        flood_cache_entries: int = 256,
    ) -> None:
        self.topology = topology
        self.content = content
        self.engine_workers = engine_workers
        self._closed = False
        # If anything below raises (the engine refuses a node/peer
        # mismatch), the stack closes what was already published.
        with ExitStack() as published:
            with span("serve.publish", shards=n_shards):
                # Published once, held for the process lifetime: the spec
                # goes to the engine so even fan-out batches attach these
                # segments instead of re-exporting per call.
                self.shared_topology = published.enter_context(
                    SharedTopology(topology)
                )
                self.shared_postings = published.enter_context(
                    ShardedPostings(partition_postings(content, n_shards))
                )
            self.engine = BatchQueryEngine(
                topology,
                content,
                flood_cache_entries=flood_cache_entries,
                postings=self.shared_postings.provider,
                topo_spec=self.shared_topology.spec,
            )
            published.pop_all()
        _LOG.info(
            "service state resident: %d nodes, %d instances, %d posting shard(s)",
            topology.n_nodes,
            content.n_instances,
            n_shards,
        )

    @classmethod
    def from_config(cls, config: ServiceConfig) -> "ServiceState":
        """Build via the artifact cache (fast on a warm cache).

        Loads the topology and the content index only: the index is
        keyed on the trace's configs, so the trace bundle is never read.
        """
        from repro.core.experiment import (
            Fig8TopologyConfig,
            build_content_index,
            build_fig8_topology,
        )
        from repro.tracegen.gnutella_trace import GnutellaTraceConfig

        with span("serve.load", nodes=config.n_nodes):
            topology = build_fig8_topology(
                Fig8TopologyConfig(n_nodes=config.n_nodes, seed=config.seed)
            )
            content = build_content_index(
                GnutellaTraceConfig(n_peers=config.n_nodes, seed=config.seed)
            )
        return cls(
            topology,
            content,
            n_shards=config.n_shards,
            engine_workers=config.engine_workers,
            flood_cache_entries=config.flood_cache_entries,
        )

    @property
    def n_nodes(self) -> int:
        """Node count of the serving topology (== trace peer count)."""
        return self.topology.n_nodes

    @property
    def n_terms(self) -> int:
        """Distinct terms in the resident content index."""
        return int(self.content.term_index.n_terms)

    def resolvability(
        self, queries: tuple[tuple[str, ...], ...]
    ) -> dict:
        """Oracle resolvability of each query against the whole index.

        Topology-free: reports how many instances (and distinct peers)
        could answer each query anywhere in the network — the paper's
        resolvability notion, served live.
        """
        keys = [self.content.query_key(list(q)) for q in queries]
        self.content.prefetch_keys(
            [k for k in keys if k is not None],
            provider=posting_reader(self.shared_postings.provider),
        )
        n_results: list[int] = []
        n_peers: list[int] = []
        for key in keys:
            if key is None:
                n_results.append(0)
                n_peers.append(0)
                continue
            hits = self.content.match_key(key)
            n_results.append(int(hits.size))
            n_peers.append(
                int(np.unique(self.content.instance_peer[hits]).size)
                if hits.size
                else 0
            )
        return {
            "n_queries": len(queries),
            "n_results": n_results,
            "n_peers": n_peers,
            "resolvable": [n > 0 for n in n_results],
        }

    def cache_bytes(self) -> dict[str, int]:
        """Bytes the match and depth caches hold, by gauge name.

        ``match.cache.bytes`` counts the rows the match LRU owns (rows
        that slice the index's postings own none);
        ``flood.cache.bytes`` the depth maps and cumulative counts of
        the depth cache's entries.
        """
        return {
            "match.cache.bytes": self.content.match_cache_nbytes,
            "flood.cache.bytes": self.engine.flood_cache.nbytes,
        }

    def flood_probe(self, source: int, ttl: int) -> dict:
        """Reach and message cost of one flood, from the depth cache."""
        entry = self.engine.flood_cache.entry(int(source), int(ttl))
        reached = int(entry.reached(int(ttl)))
        return {
            "source": int(source),
            "ttl": int(ttl),
            "messages": int(entry.messages(int(ttl))),
            "peers_reached": reached,
            "reach_fraction": reached / self.n_nodes,
        }

    def close(self) -> None:
        """Unlink published segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.shared_postings.close()
        self.shared_topology.close()

    def __enter__(self) -> "ServiceState":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
