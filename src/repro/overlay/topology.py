"""Overlay topologies.

The paper's flooding simulation runs on a 40,000-node Gnutella
network.  Modern (0.6-era) Gnutella is two-tier: *ultrapeers* form a
random mesh and route queries; *leaves* hang off a few ultrapeers and
never forward.  Both two-tier and flat random topologies are provided;
the adjacency lives in CSR arrays so flooding is pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.obs import metrics
from repro.utils import dtypes
from repro.utils.rng import derive, make_rng

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "INDEX_DTYPE",
    "Topology",
    "edges_to_csr_stream",
    "shard_bounds",
    "two_tier_gnutella",
    "flat_random",
    "from_networkx",
]

#: CSR index element type.  int32 halves the dominant per-node cost
#: (offsets + neighbors) versus the int64 seed and comfortably covers
#: the 10M-node roadmap scale; ``_edges_to_csr`` guards the
#: ``2**31 - 1`` node/entry ceiling with an explicit OverflowError
#: instead of silently wrapping.  The literal lives in
#: ``repro.utils.dtypes`` so tracegen shares it without importing the
#: overlay package; this Assign keeps the public name here.
INDEX_DTYPE = dtypes.INDEX_DTYPE


@dataclass
class Topology:
    """Undirected graph in CSR form.

    ``neighbors[offsets[v]:offsets[v+1]]`` are the neighbors of ``v``.
    ``forwards[v]`` says whether ``v`` relays queries (ultrapeers do,
    leaves do not; in a flat topology everybody forwards).
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    forwards: np.ndarray

    def __post_init__(self) -> None:
        if self.offsets.ndim != 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be a 1-D array starting at 0")
        if int(self.offsets[-1]) != self.neighbors.size:
            raise ValueError("offsets and neighbors are inconsistent")
        if self.forwards.shape[0] != self.n_nodes:
            raise ValueError("forwards mask must have one entry per node")

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self.offsets.size - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.neighbors.size // 2

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of one node, or the whole degree vector."""
        if v is None:
            return np.diff(self.offsets)
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        """Neighbor ids of ``v``."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def to_networkx(self) -> nx.Graph:
        """Export to a networkx graph (node attribute ``forwards``).

        The edge list is extracted with one vectorized pass over the
        CSR arrays (each undirected edge appears twice; the ``v < w``
        copy is kept) instead of a per-node Python loop.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        src = np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.offsets))
        keep = src < self.neighbors
        g.add_edges_from(
            np.stack([src[keep], self.neighbors[keep]], axis=1).tolist()
        )
        nx.set_node_attributes(
            g, dict(enumerate(self.forwards.tolist())), "forwards"
        )
        return g


def _edges_to_csr(n_nodes: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize an edge list into CSR arrays (parallel edges merged).

    Indices are :data:`INDEX_DTYPE` (int32); node and directed-entry
    counts past its ceiling raise :class:`OverflowError` up front
    rather than wrapping inside the kernel.  The dedup key math stays
    int64 — ``lo * n_nodes + hi`` overflows 32 bits long before the
    indices do.
    """
    limit = int(np.iinfo(INDEX_DTYPE).max)
    if n_nodes > limit:
        raise OverflowError(
            f"{n_nodes} nodes exceed the CSR index dtype "
            f"{INDEX_DTYPE.name} (max {limit}); widen INDEX_DTYPE"
        )
    if edges.size == 0:
        return (
            np.zeros(n_nodes + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
        )
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    uniq = np.unique(lo.astype(np.int64) * n_nodes + hi)
    lo, hi = uniq // n_nodes, uniq % n_nodes
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    if src.size > limit:
        raise OverflowError(
            f"{n_nodes} nodes with {uniq.size} undirected edges need "
            f"{src.size} CSR entries, exceeding the index dtype "
            f"{INDEX_DTYPE.name} (max {limit}); widen INDEX_DTYPE"
        )
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    offsets = np.zeros(n_nodes + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=offsets[1:])
    return offsets, dst.astype(INDEX_DTYPE)


def shard_bounds(n_nodes: int, n_shards: int) -> np.ndarray:
    """Contiguous node-range boundaries for ``n_shards`` shards.

    Returns ``bounds`` (int64, ``len == effective_shards + 1``) with
    ``bounds[s]:bounds[s+1]`` the node range of shard ``s``; ranges
    differ in size by at most one node.  Shard counts beyond the node
    count are clamped, so every shard owns at least one node.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    effective = min(n_shards, n_nodes)
    return (np.arange(effective + 1, dtype=np.int64) * n_nodes) // effective


def edges_to_csr_stream(
    n_nodes: int,
    make_blocks: Callable[[], Iterator[np.ndarray]],
    *,
    n_shards: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Streaming :func:`_edges_to_csr`: bounded peak memory, same CSR sets.

    ``make_blocks`` is a re-iterable factory yielding ``(m, 2)`` int64
    arrays of undirected endpoints (self-loops dropped, parallel edges
    merged, exactly as in the batch builder).  The CSR is built
    shard-by-shard over contiguous node ranges: a first pass over the
    blocks counts directed entries per shard (sizing + overflow
    guards), then each shard re-streams the blocks, keeps only the
    entries it owns, and dedups/scatters them into its CSR rows.  Peak
    ancillary memory is one shard's entry buffer plus one block — the
    full edge list is never resident.

    The output is independent of ``n_shards`` (dedup partitions by
    source node, so per-shard merging equals global merging), but
    neighbor order *within a node's row* is ascending rather than the
    batch builder's two-segment order — the same adjacency sets, and
    bitwise-identical flood results, without the global sort.  Guards
    are conservative: per-shard and total directed entry counts are
    checked against :data:`INDEX_DTYPE` *before* parallel-edge merging.
    """
    limit = int(np.iinfo(INDEX_DTYPE).max)
    if n_nodes > limit:
        raise OverflowError(
            f"{n_nodes} nodes exceed the CSR index dtype "
            f"{INDEX_DTYPE.name} (max {limit}); widen INDEX_DTYPE"
        )
    bounds = shard_bounds(n_nodes, n_shards)
    n_effective = bounds.size - 1
    counts = np.zeros(n_effective, dtype=np.int64)
    for block in make_blocks():
        u, v = _clean_block(block)
        counts += np.bincount(
            np.searchsorted(bounds, u, side="right") - 1, minlength=n_effective
        )
        counts += np.bincount(
            np.searchsorted(bounds, v, side="right") - 1, minlength=n_effective
        )
    worst = int(counts.max()) if counts.size else 0
    if worst > limit:
        shard = int(counts.argmax())
        raise OverflowError(
            f"shard {shard} would hold {worst} directed CSR entries, "
            f"exceeding the index dtype {INDEX_DTYPE.name} (max {limit}); "
            f"use more shards or widen INDEX_DTYPE"
        )
    total = int(counts.sum())
    if total > limit:
        raise OverflowError(
            f"{n_nodes} nodes need {total} directed CSR entries, exceeding "
            f"the index dtype {INDEX_DTYPE.name} (max {limit}); "
            f"widen INDEX_DTYPE"
        )
    registry = metrics()
    registry.gauge("topology.stream.n_shards", n_effective)
    registry.gauge("topology.stream.peak_shard_entries", worst)
    degree_parts: list[np.ndarray] = []
    neighbor_parts: list[np.ndarray] = []
    for s in range(n_effective):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        # Packed (local_src, dst) keys: local_src * n_nodes + dst stays
        # within int64 for any INDEX_DTYPE-sized node count.
        buf = np.empty(counts[s], dtype=np.int64)
        fill = 0
        for block in make_blocks():
            u, v = _clean_block(block)
            for a, b in ((u, v), (v, u)):
                mask = (a >= lo) & (a < hi)
                part = np.count_nonzero(mask)
                buf[fill : fill + part] = (a[mask] - lo) * n_nodes + b[mask]
                fill += part
        # Once per *shard*, not per element: the sort is how the
        # bounded key buffer dedups and orders one shard's rows
        # without ever materializing the global edge list (a global
        # seen-mask would be O(n_nodes^2) bits).
        keys = np.unique(buf[:fill])
        degree_parts.append(np.bincount(keys // n_nodes, minlength=hi - lo))
        neighbor_parts.append((keys % n_nodes).astype(INDEX_DTYPE))
    offsets = np.zeros(n_nodes + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.concatenate(degree_parts), out=offsets[1:])
    return offsets, np.concatenate(neighbor_parts)


def _clean_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate one streamed edge block; returns self-loop-free columns."""
    if block.ndim != 2 or block.shape[1] != 2:
        raise ValueError(f"edge blocks must be (m, 2), got {block.shape}")
    u, v = block[:, 0], block[:, 1]
    keep = u != v
    return u[keep], v[keep]


def from_networkx(g: nx.Graph) -> Topology:
    """Build a :class:`Topology` from a networkx graph.

    Nodes must be ``0..n-1``; a ``forwards`` node attribute is honored
    (default: every node forwards).
    """
    n = g.number_of_nodes()
    if set(g.nodes) != set(range(n)):
        raise ValueError("nodes must be labeled 0..n-1 (use convert_node_labels_to_integers)")
    edges = np.asarray([(u, v) for u, v in g.edges], dtype=np.int64).reshape(-1, 2)
    offsets, neighbors = _edges_to_csr(n, edges)
    forwards = np.asarray(
        [bool(g.nodes[v].get("forwards", True)) for v in range(n)], dtype=bool
    )
    return Topology(offsets, neighbors, forwards)


def flat_random(
    n_nodes: int, avg_degree: float, seed: int | np.random.Generator = 0
) -> Topology:
    """Flat Erdős–Rényi-style topology; every node forwards."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if avg_degree <= 0 or avg_degree >= n_nodes:
        raise ValueError(f"avg_degree must be in (0, n_nodes), got {avg_degree}")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    n_edges = int(round(n_nodes * avg_degree / 2))
    edges = rng.integers(0, n_nodes, size=(n_edges, 2), dtype=np.int64)
    offsets, neighbors = _edges_to_csr(n_nodes, edges)
    return Topology(offsets, neighbors, np.ones(n_nodes, dtype=bool))


def _sample_rows_without_replacement(
    n_rows: int, k: int, n_choices: int, rng: np.random.Generator
) -> np.ndarray:
    """``(n_rows, k)`` integers in ``[0, n_choices)``, distinct per row.

    Vectorized: draw all rows at once and redraw only the rows that
    contain a duplicate.  Each round is one batched draw, and the
    per-row collision probability is at most ``k^2 / (2 n_choices)``,
    so the expected number of rounds is small whenever ``k`` is far
    from ``n_choices``.  Near saturation (``n_choices < 4k``), where
    rejection would thrash, each row instead takes the first ``k``
    entries of an independently permuted ``arange(n_choices)``.
    """
    if k > n_choices:
        raise ValueError("cannot sample more distinct values than exist")
    if n_rows == 0 or k == 0:
        return np.empty((n_rows, k), dtype=np.int64)
    if n_choices < 4 * k:
        rows = np.tile(np.arange(n_choices, dtype=np.int64), (n_rows, 1))
        rng.permuted(rows, axis=1, out=rows)
        return np.ascontiguousarray(rows[:, :k])
    targets = rng.integers(0, n_choices, size=(n_rows, k), dtype=np.int64)
    while True:
        ordered = np.sort(targets, axis=1)
        bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if bad.size == 0:
            return targets
        targets[bad] = rng.integers(0, n_choices, size=(bad.size, k), dtype=np.int64)


def two_tier_gnutella(
    n_nodes: int,
    *,
    ultrapeer_fraction: float = 0.3,
    up_up_degree: float = 10.0,
    leaf_up_connections: int = 3,
    seed: int | np.random.Generator = 0,
    edge_block: int | None = None,
) -> Topology:
    """Gnutella-0.6-style two-tier topology.

    The first ``round(n_nodes * ultrapeer_fraction)`` node ids are
    ultrapeers (convenient for masking); they form a random mesh of
    average intra-ultrapeer degree ``up_up_degree``.  Each leaf
    connects to ``leaf_up_connections`` distinct ultrapeers.  Only
    ultrapeers forward queries.

    ``edge_block`` switches to the streaming construction: edges are
    drawn in blocks of at most ``edge_block`` rows, each block on its
    own :func:`~repro.utils.rng.derive`-d stream, and the CSR is built
    shard-by-shard via :func:`edges_to_csr_stream` — peak memory never
    holds the full edge list, which is what unblocks 1M–10M-node
    generation.  The draw is deterministic in ``(seed, edge_block)``
    but is a *different* deterministic graph than the batch path (the
    batch draw consumes one global stream, whose rejection-resampling
    order cannot be replayed block-wise), so ``edge_block`` belongs in
    any cache key that covers the topology.
    """
    if not 0.0 < ultrapeer_fraction <= 1.0:
        raise ValueError("ultrapeer_fraction must be in (0, 1]")
    n_up = max(2, int(round(n_nodes * ultrapeer_fraction)))
    if n_up > n_nodes:
        raise ValueError("more ultrapeers than nodes")
    if leaf_up_connections < 1:
        raise ValueError("leaves need at least one ultrapeer connection")
    n_leaves = n_nodes - n_up
    n_up_edges = int(round(n_up * up_up_degree / 2))
    k = min(leaf_up_connections, n_up)

    if edge_block is not None:
        if edge_block < 1:
            raise ValueError(f"edge_block must be positive, got {edge_block}")
        if isinstance(seed, np.random.Generator):
            raise TypeError(
                "streaming generation derives one stream per edge block; "
                "pass an integer seed, not a Generator"
            )
        offsets, neighbors = _two_tier_streamed(
            n_nodes, n_up, n_leaves, k, n_up_edges, int(seed), edge_block
        )
    else:
        rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
        up_edges = rng.integers(0, n_up, size=(n_up_edges, 2), dtype=np.int64)
        # Leaf attachments: sample distinct ultrapeers per leaf (without
        # replacement, so CSR merging never shrinks a leaf's degree).
        leaf_targets = _sample_rows_without_replacement(n_leaves, k, n_up, rng)
        leaf_ids = np.arange(n_up, n_nodes, dtype=np.int64)
        leaf_edges = np.stack(
            [np.repeat(leaf_ids, k), leaf_targets.ravel()], axis=1
        )
        edges = np.concatenate([up_edges, leaf_edges], axis=0)
        offsets, neighbors = _edges_to_csr(n_nodes, edges)
    forwards = np.zeros(n_nodes, dtype=bool)
    forwards[:n_up] = True
    return Topology(offsets, neighbors, forwards)


def _two_tier_streamed(
    n_nodes: int,
    n_up: int,
    n_leaves: int,
    k: int,
    n_up_edges: int,
    seed: int,
    edge_block: int,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the streaming two-tier draw.

    Every block's stream is derived from ``(seed, kind, block_index)``,
    so blocks are independent of each other and of the shard layout;
    the leaf sampler's rejection redraws stay *within* a block.  The
    shard count targets a few blocks' worth of directed entries per
    shard buffer, keeping peak ancillary memory proportional to
    ``edge_block`` rather than the edge count.
    """
    expected_entries = 2 * (n_up_edges + n_leaves * k)
    n_shards = int(min(1024, max(1, -(-expected_entries // (4 * edge_block)))))

    def make_blocks() -> Iterator[np.ndarray]:
        for index, start in enumerate(range(0, n_up_edges, edge_block)):
            rows = min(edge_block, n_up_edges - start)
            rng = derive(seed, "two-tier-stream/up", index)
            yield rng.integers(0, n_up, size=(rows, 2), dtype=np.int64)
        leaf_rows = max(1, edge_block // k)
        for index, start in enumerate(range(0, n_leaves, leaf_rows)):
            rows = min(leaf_rows, n_leaves - start)
            rng = derive(seed, "two-tier-stream/leaf", index)
            targets = _sample_rows_without_replacement(rows, k, n_up, rng)
            ids = np.arange(n_up + start, n_up + start + rows, dtype=np.int64)
            yield np.stack([np.repeat(ids, k), targets.ravel()], axis=1)

    return edges_to_csr_stream(n_nodes, make_blocks, n_shards=n_shards)
