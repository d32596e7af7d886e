"""Gnutella-style unstructured overlay: topologies, flooding, walks, search."""

from repro.overlay.advertisement import (
    AdReport,
    AdStore,
    AdvertisementConfig,
    simulate_advertisement,
)
from repro.overlay.bandwidth import DEFAULT_WIRE, WireModel
from repro.overlay.batch import BatchOutcome, BatchQueryEngine
from repro.overlay.churn import ChurnConfig, ChurnTimeline, crawl_snapshot
from repro.overlay.content import (
    BatchMatches,
    DensePostings,
    PostingShard,
    PostingShardSet,
    PostingsProvider,
    SharedContentIndex,
    intersect_postings,
    intersect_postings_batch,
    partition_postings,
)
from repro.overlay.expanding_ring import ExpandingRingResult, expanding_ring_search
from repro.overlay.gia import (
    GIA_CAPACITY_LEVELS,
    GiaSearchResult,
    gia_search,
    gia_success_rate,
    gia_topology,
    one_hop_coverage,
    sample_capacities,
)
from repro.overlay.flooding import (
    DepthEntry,
    FloodDepthCache,
    FloodResult,
    flood,
    flood_depths,
    flood_depths_batch,
    reach_fractions,
)
from repro.overlay.messages import Guid, QueryHit, QueryMessage, guid_factory
from repro.overlay.network import SearchOutcome, UnstructuredNetwork
from repro.overlay.protocol import GnutellaSession, ProtocolConfig
from repro.overlay.qrp import (
    QrpBatchOutcome,
    QrpFloodResult,
    QrpTables,
    qrp_flood,
    qrp_flood_batch,
)
from repro.overlay.random_walk import WalkResult, random_walk
from repro.overlay.result_cache import (
    CacheConfig,
    CacheReport,
    QueryResultCache,
    simulate_cache,
)
from repro.overlay.semantic_cluster import (
    library_similarity_topk,
    neighborhood_hit_rate,
    semantic_rewire,
)
from repro.overlay.shortcuts import (
    ShortcutConfig,
    ShortcutList,
    ShortcutReport,
    simulate_shortcuts,
)
from repro.overlay.replication import POLICIES, allocate_replicas, expected_search_size
from repro.overlay.topology import (
    Topology,
    edges_to_csr_stream,
    flat_random,
    from_networkx,
    shard_bounds,
    two_tier_gnutella,
)

__all__ = [
    "DEFAULT_WIRE",
    "WireModel",
    "AdReport",
    "AdStore",
    "AdvertisementConfig",
    "simulate_advertisement",
    "BatchMatches",
    "BatchOutcome",
    "BatchQueryEngine",
    "ChurnConfig",
    "ChurnTimeline",
    "crawl_snapshot",
    "DensePostings",
    "PostingShard",
    "PostingShardSet",
    "PostingsProvider",
    "SharedContentIndex",
    "intersect_postings",
    "intersect_postings_batch",
    "partition_postings",
    "ExpandingRingResult",
    "expanding_ring_search",
    "GIA_CAPACITY_LEVELS",
    "GiaSearchResult",
    "gia_search",
    "gia_success_rate",
    "gia_topology",
    "one_hop_coverage",
    "sample_capacities",
    "QrpBatchOutcome",
    "QrpFloodResult",
    "QrpTables",
    "qrp_flood",
    "qrp_flood_batch",
    "GnutellaSession",
    "ProtocolConfig",
    "CacheConfig",
    "CacheReport",
    "QueryResultCache",
    "simulate_cache",
    "library_similarity_topk",
    "neighborhood_hit_rate",
    "semantic_rewire",
    "ShortcutConfig",
    "ShortcutList",
    "ShortcutReport",
    "simulate_shortcuts",
    "POLICIES",
    "allocate_replicas",
    "expected_search_size",
    "DepthEntry",
    "FloodDepthCache",
    "FloodResult",
    "flood",
    "flood_depths",
    "flood_depths_batch",
    "reach_fractions",
    "Guid",
    "QueryHit",
    "QueryMessage",
    "guid_factory",
    "SearchOutcome",
    "UnstructuredNetwork",
    "WalkResult",
    "random_walk",
    "Topology",
    "edges_to_csr_stream",
    "flat_random",
    "from_networkx",
    "shard_bounds",
    "two_tier_gnutella",
]
