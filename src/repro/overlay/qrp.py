"""Gnutella 0.6 Query Routing Protocol (QRP).

In the two-tier Gnutella the paper measures, leaves upload a *query
routing table* (QRT) to their ultrapeers: a fixed-size hash-bit table
over the terms of their shared files.  An ultrapeer forwards a query
to a leaf only when **every** query term hashes to a set slot in that
leaf's QRT — the last hop, which dominates message volume, is pruned
for leaves that cannot possibly match.

QRP is the deployed ancestor of the paper's synopsis idea: a
content-derived, capacity-limited summary consulted before
forwarding.  Reproducing it lets the harness quantify the last-hop
savings (large) and the false-positive forwarding rate — and contrast
it with query-centric synopses, which choose *which* terms to
summarize instead of hashing them all.

QRT semantics follow the LimeWire-style variant: single hash function
over a power-of-two table, conservative AND across query terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.overlay.content import SharedContentIndex
from repro.overlay.flooding import FloodDepthCache, flood_depths
from repro.overlay.topology import Topology
from repro.utils.bloom import splitmix64

__all__ = [
    "QrpTables",
    "QrpFloodResult",
    "QrpBatchOutcome",
    "qrp_flood",
    "qrp_flood_batch",
]


class QrpTables:
    """Per-leaf query routing tables held at the network edge.

    ``table_bits[p]`` is peer ``p``'s QRT: a boolean row of
    ``table_size`` slots with one hash per term (the protocol's single
    hash function).  Ultrapeers consult the rows of their leaves.
    """

    def __init__(self, content: SharedContentIndex, table_size: int = 4096) -> None:
        if table_size < 2 or table_size & (table_size - 1):
            raise ValueError(f"table_size must be a power of two, got {table_size}")
        self.table_size = table_size
        self.content = content
        n_peers = content.n_peers
        self.table_bits = np.zeros((n_peers, table_size), dtype=bool)
        # All (peer, term) pairs in one shot.
        terms = content._posting_terms
        peers = content.instance_peer[content._posting_instances]
        slots = self._slot(terms)
        self.table_bits[peers, slots] = True

    def _slot(self, term_ids: np.ndarray) -> np.ndarray:
        ids = np.atleast_1d(np.asarray(term_ids, dtype=np.uint64))
        h = splitmix64(ids, 0x9E3779B97F4A7C15)
        return (h & np.uint64(self.table_size - 1)).astype(np.int64)

    def query_slots(self, terms: list[str]) -> np.ndarray | None:
        """Slot indexes for a query's terms; ``None`` if a term is unknown.

        Unknown terms still hash to a slot in the real protocol; we
        hash the string itself so behaviour matches.
        """
        ids = []
        for t in terms:
            tid = self.content.term_id(t)
            if tid is None:
                # Hash unknown terms by string content (stable FNV-1a).
                acc = 0xCBF29CE484222325
                for b in t.encode("utf-8"):
                    acc = ((acc ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
                ids.append(acc)
            else:
                ids.append(int(tid))
        return self._slot(np.asarray(ids, dtype=np.uint64))

    def peers_matching(self, terms: list[str]) -> np.ndarray:
        """Bool per peer: QRT has every query term's slot set."""
        slots = self.query_slots(terms)
        return self.table_bits[:, slots].all(axis=1)


@dataclass(frozen=True)
class QrpFloodResult:
    """A flood with QRP-pruned last hops."""

    source: int
    ttl: int
    #: peers that actually received the query.
    delivered: np.ndarray
    #: messages with QRP pruning in force.
    messages: int
    #: messages the same flood would have cost without QRP.
    messages_without_qrp: int
    #: leaf deliveries whose QRT matched but whose files did not.
    false_positive_deliveries: int

    @property
    def savings(self) -> float:
        """Fraction of messages QRP pruned."""
        if self.messages_without_qrp == 0:
            return 0.0
        return 1.0 - self.messages / self.messages_without_qrp


def qrp_flood(
    topology: Topology,
    tables: QrpTables,
    source: int,
    terms: list[str],
    ttl: int,
) -> QrpFloodResult:
    """Flood with QRP-pruned ultrapeer->leaf forwarding.

    Ultrapeer-to-ultrapeer propagation is unchanged (QRP only governs
    the leaf hop), so the reached *ultrapeer* set equals the plain
    flood's; leaf deliveries happen only on QRT match.  Savings are
    accounted per *distinct* pruned leaf (a leaf multihomed to several
    reached ultrapeers receives duplicate copies in the plain flood,
    so the reported savings slightly understate the true message cut).
    """
    depth, plain_messages = flood_depths(topology, source, ttl)
    reached = depth >= 0
    forwards = topology.forwards
    qrt_match = tables.peers_matching(terms)

    # Leaves that the plain flood reached.
    leaf_reached = reached & ~forwards
    leaf_reached[source] = False
    n_leaf_deliveries_plain = int(leaf_reached.sum())
    delivered_leaves = leaf_reached & qrt_match

    # Actual file-level matches among delivered leaves.
    hits = tables.content.match(terms)
    hit_peers = np.zeros(topology.n_nodes, dtype=bool)
    if hits.size:
        hit_peers[np.unique(tables.content.instance_peer[hits])] = True
    false_pos = int((delivered_leaves & ~hit_peers).sum())

    messages = plain_messages - (n_leaf_deliveries_plain - int(delivered_leaves.sum()))
    delivered = reached.copy()
    delivered &= forwards | delivered_leaves
    delivered[source] = True
    return QrpFloodResult(
        source=source,
        ttl=ttl,
        delivered=np.flatnonzero(delivered),
        messages=messages,
        messages_without_qrp=plain_messages,
        false_positive_deliveries=false_pos,
    )


@dataclass(frozen=True)
class QrpBatchOutcome:
    """Columnar QRP flood outcomes of a query batch (row ``i`` = query ``i``)."""

    messages: np.ndarray
    messages_without_qrp: np.ndarray
    n_delivered: np.ndarray
    false_positive_deliveries: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.messages.size

    @property
    def savings(self) -> np.ndarray:
        """Per-query fraction of messages QRP pruned."""
        out = np.zeros(self.messages.size, dtype=np.float64)
        nz = self.messages_without_qrp > 0
        out[nz] = 1.0 - self.messages[nz] / self.messages_without_qrp[nz]
        return out


def qrp_flood_batch(
    topology: Topology,
    tables: QrpTables,
    sources: np.ndarray,
    queries: list[list[str]],
    ttl: int,
    *,
    cache: FloodDepthCache | None = None,
) -> QrpBatchOutcome:
    """Batch of QRP-pruned floods: ``queries[i]`` from ``sources[i]``.

    Row ``i`` reproduces ``qrp_flood(topology, tables, sources[i],
    queries[i], ttl)`` exactly, but repeated sources BFS once through
    the shared :class:`FloodDepthCache`, and repeated queries memoize
    their QRT-match and holder-peer masks.  Queries are keyed by their
    literal term strings (not canonical term ids) because unknown
    terms hash into the QRT by string content.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size != len(queries):
        raise ValueError(f"{sources.size} sources for {len(queries)} queries")
    if cache is None:
        cache = FloodDepthCache(
            topology, max_entries=max(1, np.unique(sources).size)
        )
    n = sources.size
    n_nodes = topology.n_nodes
    forwards = topology.forwards
    content = tables.content
    masks: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
    messages = np.zeros(n, dtype=np.int64)
    plain = np.zeros(n, dtype=np.int64)
    n_delivered = np.zeros(n, dtype=np.int64)
    false_pos = np.zeros(n, dtype=np.int64)
    for i in range(n):
        terms = queries[i]
        key = tuple(terms)
        cached = masks.get(key)
        if cached is None:
            qrt_match = tables.peers_matching(terms)
            hits = content.match(terms)
            hit_peers = np.zeros(n_nodes, dtype=bool)
            if hits.size:
                hit_peers[content.instance_peer[hits]] = True
            cached = (qrt_match, hit_peers)
            masks[key] = cached
        qrt_match, hit_peers = cached
        source = int(sources[i])
        entry = cache.entry(source, ttl)
        reached = (entry.depth >= 0) & (entry.depth <= ttl)
        leaf_reached = reached & ~forwards
        leaf_reached[source] = False
        delivered_leaves = leaf_reached & qrt_match
        pruned = int(leaf_reached.sum()) - int(delivered_leaves.sum())
        plain[i] = entry.messages(ttl)
        messages[i] = plain[i] - pruned
        false_pos[i] = int((delivered_leaves & ~hit_peers).sum())
        delivered = reached & (forwards | delivered_leaves)
        delivered[source] = True
        n_delivered[i] = int(delivered.sum())
    return QrpBatchOutcome(
        messages=messages,
        messages_without_qrp=plain,
        n_delivered=n_delivered,
        false_positive_deliveries=false_pos,
    )
