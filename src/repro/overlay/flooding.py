"""TTL-scoped flooding (Gnutella Query propagation).

A query starts at a source with a time-to-live; every *forwarding*
node relays it to all neighbors, decrementing the TTL, with GUID-based
duplicate suppression (each node processes a query once).  The reached
set is therefore the BFS ball of radius TTL, restricted to paths whose
interior nodes forward.

Everything is vectorized: the BFS frontier is a numpy array, each
level is one CSR gather, and duplicate suppression runs on boolean
masks (a ``visited`` map plus a reusable per-level scratch mask)
instead of sorting the frontier with ``np.unique`` — the sort was the
kernel's hot spot at the 40k-node Fig. 8 scale.

Experiments that need only how many nodes each flood first reaches
per hop (Fig. 8 success curves, the reach table) run
:func:`flood_level_counts` instead: one bit per flood in a word per
node, so one pass over the CSR advances up to 64 floods.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.obs import metrics
from repro.overlay.topology import Topology
from repro.utils.stats import ragged_arange

__all__ = [
    "DEPTH_DTYPE",
    "DepthEntry",
    "FloodDepthCache",
    "FloodResult",
    "flood",
    "flood_depths",
    "flood_depths_batch",
    "flood_level_counts",
    "reach_fractions",
]

#: Depth-map element type.  Hop counts are tiny (the Fig. 8 protocol
#: caps TTL at 5; graph diameters stay far below 2**15) so int16 cuts
#: the per-node depth cost 4x versus the int64 seed.  int16 rather
#: than uint16 because -1 is the "never reached" sentinel throughout;
#: :func:`_check_depth_horizon` rejects horizons past ``iinfo.max``.
DEPTH_DTYPE = np.dtype(np.int16)


def _check_depth_horizon(max_depth: int) -> None:
    """Refuse BFS horizons the depth dtype cannot represent."""
    limit = int(np.iinfo(DEPTH_DTYPE).max)
    if max_depth > limit:
        raise OverflowError(
            f"max_depth {max_depth} exceeds the depth dtype "
            f"{DEPTH_DTYPE.name} (max {limit}); widen DEPTH_DTYPE"
        )


@dataclass(frozen=True)
class FloodResult:
    """Outcome of one flood.

    ``depth[v]`` is the hop count at which ``v`` first saw the query
    (-1 = never reached; 0 = the source itself).  ``messages`` counts
    query transmissions, including duplicates suppressed on arrival —
    the real network cost of the flood.
    """

    source: int
    ttl: int
    depth: np.ndarray
    messages: int

    @property
    def reached(self) -> np.ndarray:
        """Ids of all nodes that saw the query (including the source)."""
        return np.flatnonzero(self.depth >= 0)

    @property
    def n_reached(self) -> int:
        """Number of nodes that saw the query."""
        return int(np.count_nonzero(self.depth >= 0))


def flood_depths(
    topology: Topology,
    sources: np.ndarray | int,
    max_depth: int,
    *,
    p_loss: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, int]:
    """Multi-source BFS depth map honoring forwarding rules.

    Returns ``(depth, messages)``.  ``sources`` always emit (a leaf
    source still sends to its ultrapeers); beyond that, only nodes
    with ``topology.forwards`` relay.  ``messages`` counts every
    transmission (duplicates included), matching Gnutella accounting.

    ``p_loss`` drops each individual transmission independently (UDP
    loss, overloaded peers): lost messages still count as sent, but
    never deliver.  Requires ``rng`` when positive.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    _check_depth_horizon(max_depth)
    if not 0.0 <= p_loss < 1.0:
        raise ValueError(f"p_loss must be in [0, 1), got {p_loss}")
    if p_loss > 0.0 and rng is None:
        raise ValueError("p_loss > 0 requires an rng")
    depth, level_messages, _ = _levels(
        topology,
        np.atleast_1d(np.asarray(sources, dtype=np.int64)),
        max_depth,
        p_loss=p_loss,
        rng=rng,
    )
    messages = int(level_messages.sum())
    registry = metrics()
    registry.inc("flood.calls")
    registry.inc("flood.messages", messages)
    return depth, messages


def _levels(
    topology: Topology,
    sources: np.ndarray,
    max_depth: int,
    *,
    p_loss: float,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The BFS level loop behind :func:`flood_depths` and the depth cache.

    Returns ``(depth, level_messages, level_new)``: the depth map, the
    transmissions sent at each level, and the nodes first reached at
    each level (``level_new[0]`` counts the distinct sources).  Both
    per-level arrays have ``max_depth + 1`` entries and read 0 past
    the level where the flood died out.
    """
    n = topology.n_nodes
    depth = np.full(n, -1, dtype=DEPTH_DTYPE)
    level_messages = np.zeros(max_depth + 1, dtype=np.int64)
    level_new = np.zeros(max_depth + 1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[sources] = True
    depth[sources] = 0
    frontier = np.flatnonzero(visited)  # sorted unique sources
    level_new[0] = frontier.size
    # Reusable per-level scratch, tracked by the sanitizer: under
    # REPRO_SANITIZE=shm it is poisoned on release, so any path that
    # kept a stale reference would fault bitwise instead of silently.
    from repro.runtime.sanitize import scratch_alloc, scratch_release

    level_mask = scratch_alloc(n, bool)
    offsets, neighbors, forwards = (
        topology.offsets,
        topology.neighbors,
        topology.forwards,
    )
    try:
        for level in range(1, max_depth + 1):
            if frontier.size == 0:
                break
            # Only forwarding nodes relay, except at level 1 where the
            # sources themselves emit.
            senders = frontier if level == 1 else frontier[forwards[frontier]]
            if senders.size == 0:
                break
            lengths = offsets[senders + 1] - offsets[senders]
            gather = np.repeat(offsets[senders], lengths) + ragged_arange(lengths)
            targets = neighbors[gather]
            level_messages[level] = targets.size
            if p_loss > 0.0:
                assert rng is not None  # validated by flood_depths
                targets = targets[rng.random(targets.size) >= p_loss]
            # Duplicate suppression without sorting: candidates are the
            # unvisited targets; marking them in the scratch mask
            # collapses within-level duplicates, and flatnonzero yields
            # them sorted.
            candidates = targets[~visited[targets]]
            level_mask[candidates] = True
            new = np.flatnonzero(level_mask)
            level_mask[new] = False
            visited[new] = True
            depth[new] = level
            level_new[level] = new.size
            frontier = new
    finally:
        scratch_release(level_mask)
    return depth, level_messages, level_new


#: Floods per pass of :func:`flood_level_counts`: flood ``i`` of a pass
#: owns bit ``i`` of a word per node, at most a ``uint64``.
LANE_WIDTH = 64

#: ``0x0101...01``: the low bit of each of a word's eight bytes.
_LOW_BITS = np.uint64(0x0101010101010101)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits of each unsigned word, as int64.

    The SWAR sum (bit pairs, nibbles, bytes, then one multiply that
    adds the eight byte counts into the top byte): plain numpy >= 1.24
    arithmetic, no ``bitwise_count``.
    """
    words = words.astype(np.uint64)
    words = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    words = (words & np.uint64(0x3333333333333333)) + (
        (words >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    words = (words + (words >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((words * _LOW_BITS) >> np.uint64(56)).astype(np.int64)


def _lane_totals(words: np.ndarray) -> np.ndarray:
    """How many of the unsigned ``words`` have each bit set: 64 counts.

    ``(w >> j) & _LOW_BITS`` moves bit ``8 * b + j`` of ``w`` to the low
    bit of byte ``b``.  A sum of at most 255 such words cannot carry
    from one byte into the next, so each uint64 add counts eight lanes.
    """
    words = words[words != 0]
    blocks = np.zeros(-(-words.size // 255) * 255, dtype=np.uint64)
    blocks[: words.size] = words
    blocks = blocks.reshape(-1, 255)
    totals = np.empty((8, 8), dtype=np.int64)  # [j, b] counts lane 8 * b + j
    for j in range(8):
        sums = ((blocks >> np.uint64(j)) & _LOW_BITS).sum(axis=1, dtype=np.uint64)
        per_byte = sums.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        totals[j] = per_byte.sum(axis=0)
    return totals.T.ravel()


def _pull(
    send: np.ndarray, neighbors: np.ndarray, rows: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Each node's OR of its neighbors' ``send`` words.

    Reads every edge.  ``rows`` are the nodes with edges and ``starts``
    their first CSR entries; the CSR is symmetric, so a node's row
    lists exactly the senders it hears.
    """
    recv = np.zeros(send.size, dtype=send.dtype)
    recv[rows] = np.bitwise_or.reduceat(send[neighbors], starts)
    return recv


def _push(
    send: np.ndarray,
    active: np.ndarray,
    lengths: np.ndarray,
    offsets: np.ndarray,
    neighbors: np.ndarray,
) -> np.ndarray:
    """:func:`_pull`'s result, read along the ``active`` senders' edges only.

    ``active`` must hold every node with a nonzero ``send`` word, and
    ``lengths`` their degrees.
    """
    recv = np.zeros(send.size, dtype=send.dtype)
    gather = np.repeat(offsets[active], lengths) + ragged_arange(lengths)
    np.bitwise_or.at(recv, neighbors[gather], np.repeat(send[active], lengths))
    return recv


def flood_level_counts(
    topology: Topology,
    source_sets: Sequence[np.ndarray],
    max_depth: int,
    *,
    among: np.ndarray | None = None,
) -> np.ndarray:
    """Nodes first reached per hop by many lossless floods, 64 per pass.

    Flood ``i`` starts from every node of ``source_sets[i]`` and relays
    by the :func:`flood_depths` rules.  Entry ``[i, d]`` of the
    ``(len(source_sets), max_depth + 1)`` int64 result counts the nodes
    of the boolean mask ``among`` (every node when ``None``) that flood
    ``i`` first reaches at hop ``d``: the ``bincount`` of that flood's
    :func:`flood_depths` depth map over ``among``.  The ``flood.calls``
    and ``flood.messages`` counters move as that many
    :func:`flood_depths` calls would move them.

    Each flood owns one bit of a word per node (Then et al., "The More
    the Merrier", PVLDB 2014): a pass runs 64 floods in ``uint64``
    words, or fewer in the narrowest word that holds them.  Per level,
    ``send`` is the frontier (every source emits at hop 1; later only
    forwarders relay), and a node receives the OR of its neighbors'
    ``send`` words.  The CSR is symmetric, so that is a pull over every
    row with edges; when the senders' edges are under a quarter of the
    CSR it is cheaper to push along only those edges (Beamer et al.'s
    direction-optimizing BFS, SC 2012).  Lanes never interact, so the
    counts do not depend on how floods are grouped into words.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    n = topology.n_nodes
    # Plain ndarray views: np.memmap's indexing overhead stays out of
    # the loop.
    offsets = np.asarray(topology.offsets)
    neighbors = np.asarray(topology.neighbors)
    forwards = np.asarray(topology.forwards, dtype=bool)
    degree = np.diff(offsets)
    # reduceat indices: the first edge of every row that has edges.  A
    # row's run then ends at the next such row, or at the end of the
    # CSR, so edgeless rows (and an edgeless graph) need no clipping.
    rows = np.flatnonzero(degree)
    starts = offsets[rows]
    counted: slice | np.ndarray = (
        slice(None) if among is None else np.flatnonzero(among)
    )
    counts = np.zeros((len(source_sets), max_depth + 1), dtype=np.int64)
    messages = 0
    for lo in range(0, len(source_sets), LANE_WIDTH):
        lanes = [
            np.atleast_1d(np.asarray(s, dtype=np.int64))
            for s in source_sets[lo : lo + LANE_WIDTH]
        ]
        # The narrowest unsigned word that holds this pass's lanes: a
        # pass of 8 floods scans one byte per node, not eight.
        word = np.min_scalar_type((1 << len(lanes)) - 1)
        bits = np.left_shift(
            word.type(1),
            np.repeat(np.arange(len(lanes), dtype=word), [s.size for s in lanes]),
        )
        frontier = np.zeros(n, dtype=word)
        np.bitwise_or.at(frontier, np.concatenate(lanes), bits)
        visited = frontier
        block = counts[lo : lo + len(lanes)]
        block[:, 0] = _lane_totals(frontier[counted])[: len(lanes)]
        for level in range(1, max_depth + 1):
            live = frontier != 0
            if level > 1:
                live &= forwards  # past hop 1, only forwarders relay
            active = np.flatnonzero(live)
            lengths = degree[active]
            edges = int(lengths.sum(dtype=np.int64))
            if edges == 0:
                break
            send = np.where(live, frontier, 0)
            messages += int(lengths @ _popcounts(send[active]))
            if 4 * edges >= neighbors.size:
                recv = _pull(send, neighbors, rows, starts)
            else:
                recv = _push(send, active, lengths, offsets, neighbors)
            seen = visited | recv
            frontier = seen ^ visited
            visited = seen
            block[:, level] = _lane_totals(frontier[counted])[: len(lanes)]
    registry = metrics()
    registry.inc("flood.calls", len(source_sets))
    registry.inc("flood.messages", messages)
    return counts


@dataclass(frozen=True)
class DepthEntry:
    """One source's cached full-horizon BFS, sliceable by TTL.

    ``depth`` is the unbounded hop count (-1 = unreachable within the
    horizon); ``cum_messages[t]`` / ``cum_reached[t]`` are the message
    cost and reached-node count of a flood with TTL ``t``.  Because a
    lossless flood's level ``t`` frontier depends only on levels
    ``< t``, every TTL up to the horizon is a slice of one BFS —
    expanding-ring re-floods become array lookups while keeping the
    per-ring protocol cost accounting exact.
    """

    source: int
    depth: np.ndarray
    cum_messages: np.ndarray
    cum_reached: np.ndarray
    #: True when the BFS exhausted the reachable set before the
    #: horizon: the entry is then valid for *any* TTL.
    exhausted: bool

    @property
    def horizon(self) -> int:
        """Deepest TTL the cumulative accounting covers."""
        return self.cum_messages.size - 1

    def supports(self, ttl: int) -> bool:
        """Can this entry answer a TTL-``ttl`` flood exactly?"""
        return self.exhausted or ttl <= self.horizon

    def messages(self, ttl: int) -> int:
        """Message cost of a flood with the given TTL."""
        return int(self.cum_messages[min(ttl, self.horizon)])

    def reached(self, ttl: int) -> int:
        """Nodes reached (source included) by a flood with this TTL."""
        return int(self.cum_reached[min(ttl, self.horizon)])

    def depth_at(self, ttl: int) -> np.ndarray:
        """The ``flood_depths`` depth map of a TTL-``ttl`` flood."""
        # The sentinel carries the depth dtype: a 0-d int64 would
        # promote the whole result back to int64 under NEP 50.
        return np.where(
            (self.depth >= 0) & (self.depth <= ttl),
            self.depth,
            DEPTH_DTYPE.type(-1),
        )


class FloodDepthCache:
    """Bounded per-source cache of lossless flood depth maps.

    Batched query evaluation floods the same sources over and over —
    Zipf workloads repeat sources, expanding rings re-flood one source
    at growing TTLs, strategy comparisons replay identical samples.
    The cache BFS-es each source once to the requested horizon, with
    the same level loop as :func:`flood_depths`, and answers every
    later (source, ttl) pair from the stored :class:`DepthEntry`.
    Entries are LRU-evicted beyond ``max_entries``; a request deeper
    than a stored horizon recomputes that source at the deeper
    horizon.

    Each BFS allocates its own scratch, so concurrent misses on one
    instance stay exact; the entry table itself is not
    thread-synchronized.  Only deterministic (lossless) floods are
    cacheable; ``p_loss`` floods must keep using :func:`flood_depths`.
    """

    def __init__(self, topology: Topology, *, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.topology = topology
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, DepthEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, source: int, min_depth: int) -> DepthEntry:
        """The cached BFS of ``source``, valid to at least ``min_depth``."""
        if min_depth < 0:
            raise ValueError(f"min_depth must be non-negative, got {min_depth}")
        _check_depth_horizon(min_depth)
        source = int(source)
        registry = metrics()
        cached = self._entries.get(source)
        if cached is not None and cached.supports(min_depth):
            self._entries.move_to_end(source)
            registry.inc("flood.cache.hits")
            return cached
        registry.inc("flood.cache.misses")
        entry = self._bfs(source, min_depth)
        self._entries[source] = entry
        self._entries.move_to_end(source)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            registry.inc("flood.cache.evictions")
        return entry

    def _bfs(self, source: int, max_depth: int) -> DepthEntry:
        """One full BFS with per-level cumulative accounting.

        Runs the :func:`flood_depths` level loop, so
        ``entry.depth_at(t)`` / ``entry.messages(t)`` are bitwise equal
        to ``flood_depths(topology, source, t)`` for every
        ``t <= max_depth``.
        """
        metrics().inc("flood.cache.bfs")
        depth, level_messages, level_new = _levels(
            self.topology,
            np.asarray([source], dtype=np.int64),
            max_depth,
            p_loss=0.0,
            rng=None,
        )
        return DepthEntry(
            source=source,
            depth=depth,
            cum_messages=np.cumsum(level_messages),
            cum_reached=np.cumsum(level_new),
            # No node first reached at the horizon: the flood died out
            # within it, so every deeper TTL reads the same entry.
            exhausted=not level_new[max_depth],
        )


def flood_depths_batch(
    topology: Topology,
    sources: np.ndarray,
    max_depth: int,
    *,
    cache: FloodDepthCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Depth maps and message counts of many floods in one call.

    Returns ``(depth, messages)`` where ``depth[i]`` is the
    ``flood_depths(topology, sources[i], max_depth)`` depth map and
    ``messages[i]`` its message count — bitwise identical to the
    per-source kernel, but repeated sources BFS once.  Pass an
    existing ``cache`` to also reuse BFS results across calls (e.g.
    expanding-ring schedules).

    The row-per-source depth matrix costs
    ``n_sources * n_nodes * 2`` bytes; workload-scale consumers must
    use :class:`FloodDepthCache` directly (the batched query engine
    does) and read per-query quantities off the shared entries.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if cache is None:
        cache = FloodDepthCache(
            topology, max_entries=max(1, np.unique(sources).size)
        )
    depth = np.empty((sources.size, topology.n_nodes), dtype=DEPTH_DTYPE)
    messages = np.empty(sources.size, dtype=np.int64)
    for i, s in enumerate(sources):
        entry = cache.entry(int(s), max_depth)
        depth[i] = entry.depth_at(max_depth)
        messages[i] = entry.messages(max_depth)
    return depth, messages


def flood(
    topology: Topology,
    source: int,
    ttl: int,
    *,
    p_loss: float = 0.0,
    rng: np.random.Generator | None = None,
) -> FloodResult:
    """Flood from one source with the given TTL.

    ``p_loss``/``rng`` model lossy transport exactly as in
    :func:`flood_depths`: each transmission is dropped independently
    with probability ``p_loss`` (still counted in ``messages``).
    """
    depth, messages = flood_depths(topology, source, ttl, p_loss=p_loss, rng=rng)
    return FloodResult(source=source, ttl=ttl, depth=depth, messages=messages)


def _reach_rows(
    topology: Topology, sources: np.ndarray, ttls: np.ndarray, max_ttl: int
) -> np.ndarray:
    """Per-TTL reach fractions of each source's flood, one row per source."""
    counts = flood_level_counts(topology, list(sources[:, None]), max_ttl)
    cum = np.cumsum(counts, axis=1)
    # Exclude the source itself from "peers reached".  C order keeps
    # the mean over sources summing row after row: on a column-major
    # array numpy sums each column pairwise, which rounds differently.
    return np.ascontiguousarray((cum[:, ttls] - 1) / topology.n_nodes)


def _reach_rows_task(sources: np.ndarray, *, spec, ttls, max_ttl):
    """Worker task: attach the shared topology, flood one chunk of sources.

    A lossless flood is a pure function of its source, so the task is
    registered with ``needs_rng=False`` — no per-chunk seed derivation,
    and no unused ``rng`` parameter inviting misuse.
    """
    # Deferred import: repro.runtime sits above the overlay layer.
    from repro.runtime.shm import attach_topology

    return _reach_rows(attach_topology(spec), sources, ttls, max_ttl)


def reach_fractions(
    topology: Topology,
    sources: np.ndarray,
    ttls: np.ndarray | list[int],
    *,
    n_workers: int = 1,
) -> np.ndarray:
    """Mean fraction of nodes reached per TTL, averaged over sources.

    One lane flood per source computes every TTL at once (TTL ``t``
    reach is the number of nodes at depth <= ``t``).  This regenerates
    the paper's §V reach table (0.05% @ TTL 1 ... 82.95% @ TTL 5).

    ``n_workers > 1`` (or 0, one per CPU) splits the sources into that
    many contiguous chunks, one per process-pool task (the topology
    travels via shared memory); the result is bitwise-identical to the
    serial run because each flood is a pure function of its source.
    """
    # Deferred import: repro.runtime sits above the overlay layer.
    from repro.runtime.parallel import pmap, resolve_workers

    workers = resolve_workers(n_workers)
    ttls = np.asarray(ttls, dtype=np.int64)
    if ttls.size == 0:
        raise ValueError("need at least one TTL")
    max_ttl = int(ttls.max())
    sources = np.asarray(sources, dtype=np.int64).ravel()
    if sources.size == 0:
        raise ValueError("sources must name at least one node")
    if workers == 1 or sources.size <= 1:
        rows = _reach_rows(topology, sources, ttls, max_ttl)
    else:
        from repro.runtime.shm import SharedTopology

        bounds = np.linspace(0, sources.size, workers + 1).astype(np.int64)
        chunks = [sources[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with SharedTopology(topology) as share:
            task = partial(
                _reach_rows_task, spec=share.spec, ttls=ttls, max_ttl=max_ttl
            )
            rows = np.concatenate(
                pmap(
                    task, chunks,
                    seed=0, key="reach", n_workers=workers, needs_rng=False,
                )
            )
    return rows.mean(axis=0)
