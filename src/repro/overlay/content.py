"""Shared-content index: who shares what, term-matchable.

Bridges a :class:`~repro.tracegen.gnutella_trace.GnutellaShareTrace`
to the overlay: every shared instance is tokenized once (via
:class:`~repro.analysis.tokenize.TermIndex`) and posting lists map
term ids to the instances whose names contain them.  Query matching is
Gnutella semantics: a file matches when its name contains *all* query
terms; a peer responds with its matching files.  The index keeps the
term dictionary, the postings and each instance's peer, not the trace
it was built from: a keyword query reads nothing else.

Three evaluation paths share one core:

* :meth:`SharedContentIndex.match` — one query at a time, memoized
  through a bounded LRU keyed by the query's term-id tuple, so the
  Zipf-repeated popular queries that dominate real workloads
  re-intersect their posting lists only once per process.  A cached
  row owns its memory or slices the index's own postings, so the LRU
  keeps no batch buffer alive;
* :meth:`SharedContentIndex.match_batch` — a whole workload at once,
  deduplicated by term-id tuple and returned as one
  :class:`BatchMatches` CSR structure;
* :func:`intersect_postings_batch` — the flat kernel underneath: all
  distinct queries' posting lists gathered into one concatenated
  buffer and AND-intersected in whole-batch numpy passes
  (shortest-list-first, a sort-free membership merge per pass) instead
  of N Python-level ``np.intersect1d`` loops.

Posting storage is pluggable behind :class:`PostingsProvider`:
:class:`DensePostings` is the flat CSR view every index
carries; :func:`partition_postings` splits the term-id space into
contiguous ranges (:class:`PostingShardSet`) with re-based
``INDEX_DTYPE`` offsets, so ``runtime.shm`` can publish each segment
to shared memory on its own.  Results are bitwise-identical for every
provider and shard count.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Protocol, Sequence, cast

import numpy as np

from repro.analysis.tokenize import TermIndex
from repro.obs import metrics
from repro.overlay.topology import INDEX_DTYPE, shard_bounds
from repro.utils.stats import encode_pairs, ragged_arange

if TYPE_CHECKING:
    from repro.tracegen.gnutella_trace import GnutellaShareTrace

__all__ = [
    "BatchMatches",
    "DensePostings",
    "PostingShard",
    "PostingShardSet",
    "PostingsProvider",
    "QueryKey",
    "SharedContentIndex",
    "intersect_postings",
    "intersect_postings_batch",
    "partition_postings",
]

#: Canonical query identity: sorted distinct term ids.  ``None`` marks
#: a query containing an unknown term (it can match no file).
QueryKey = tuple[int, ...]

#: Bound on the per-index memoized match cache (distinct queries).
_MATCH_CACHE_MAX = 4096


def _check_posting_width(n_terms: int, n_instances: int, n_entries: int) -> None:
    """Raise if posting counts exceed the index element dtype.

    Reads the module-global ``INDEX_DTYPE`` at call time so boundary
    tests can narrow it; the counts in the message are the quantities
    a caller must shrink (or the dtype they must widen).
    """
    limit = int(np.iinfo(INDEX_DTYPE).max)
    if max(n_terms, n_instances - 1, n_entries) > limit:
        raise OverflowError(
            f"content index with {n_terms} terms, {n_instances} instances and "
            f"{n_entries} posting entries exceeds the index dtype "
            f"{INDEX_DTYPE.name} (max {limit}); widen INDEX_DTYPE"
        )


class PostingsProvider(Protocol):
    """Read access to CSR posting lists, storage-agnostic.

    ``SharedContentIndex`` and the batch kernel consume this protocol
    only, so postings may live in local arrays (:class:`DensePostings`),
    term-sharded segments (:class:`PostingShardSet`), or attached
    shared memory, with bitwise-identical results.
    """

    @property
    def n_terms(self) -> int:
        """Number of term ids covered."""
        ...

    @property
    def n_instances(self) -> int:
        """Total shared-file instances indexed."""
        ...

    @property
    def instance_peer(self) -> np.ndarray:
        """Peer id per instance."""
        ...

    def posting_lengths(self, term_ids: np.ndarray) -> np.ndarray:
        """int64 posting-list length per requested term id."""
        ...

    def gather_postings(self, term_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posting lists of ``term_ids``, concatenated in request order.

        Returns ``(offsets, instances)`` where row ``i`` of the CSR
        pair is the sorted posting list of ``term_ids[i]``.
        """
        ...


@dataclass(frozen=True, eq=False)
class DensePostings:
    """Single-segment CSR postings: the provider every index carries.

    ``posting_instances[posting_offsets[t]:posting_offsets[t+1]]`` are
    the sorted instance ids whose names contain term ``t``.
    """

    posting_offsets: np.ndarray
    posting_instances: np.ndarray
    instance_peer: np.ndarray

    @property
    def n_terms(self) -> int:
        """Number of term ids covered."""
        return self.posting_offsets.size - 1

    @property
    def n_instances(self) -> int:
        """Total shared-file instances indexed."""
        return self.instance_peer.size

    def posting_lengths(self, term_ids: np.ndarray) -> np.ndarray:
        """int64 posting-list length per requested term id."""
        term_ids = np.asarray(term_ids, dtype=np.int64)
        offsets = self.posting_offsets
        return offsets[term_ids + 1].astype(np.int64) - offsets[term_ids]

    def gather_postings(self, term_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posting lists of ``term_ids``, concatenated in request order."""
        term_ids = np.asarray(term_ids, dtype=np.int64)
        starts = self.posting_offsets[term_ids].astype(np.int64)
        lengths = self.posting_lengths(term_ids)
        offsets = np.zeros(term_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        src = np.repeat(starts, lengths) + ragged_arange(lengths)
        return offsets, self.posting_instances[src]


@dataclass(frozen=True, eq=False)
class PostingShard:
    """Posting lists of the contiguous term range ``[lo, hi)``.

    ``offsets`` is re-based to the segment (``offsets[0] == 0``) and
    narrowed to ``INDEX_DTYPE``; ``instances`` holds *global* instance
    ids, so shard results never need translation.
    """

    lo: int
    hi: int
    offsets: np.ndarray
    instances: np.ndarray


@dataclass(frozen=True, eq=False)
class PostingShardSet:
    """Contiguous term-range shards of one posting index.

    ``bounds[s] <= t < bounds[s+1]`` maps term ``t`` to ``shards[s]``.
    ``spec`` carries the shm publication handle when the set is backed
    by shared segments (``runtime.shm.ShardedPostings``) so worker
    fan-out can forward it without re-publishing.
    """

    bounds: np.ndarray
    shards: tuple[PostingShard, ...]
    instance_peer: np.ndarray
    spec: object | None = None

    @property
    def n_shards(self) -> int:
        """Number of term-range segments."""
        return len(self.shards)

    @property
    def n_terms(self) -> int:
        """Number of term ids covered."""
        return int(self.bounds[-1])

    @property
    def n_instances(self) -> int:
        """Total shared-file instances indexed."""
        return self.instance_peer.size

    def flat(self) -> DensePostings:
        """A one-shard set as a zero-copy :class:`DensePostings` view."""
        if self.n_shards != 1:
            raise ValueError(
                f"a flat view needs exactly one shard, not {self.n_shards}"
            )
        shard = self.shards[0]
        return DensePostings(shard.offsets, shard.instances, self.instance_peer)

    def shard_of(self, term_ids: np.ndarray) -> np.ndarray:
        """Owning shard index per term id."""
        ids = np.asarray(term_ids, dtype=np.int64)
        return np.searchsorted(self.bounds, ids, side="right") - 1

    def posting_lengths(self, term_ids: np.ndarray) -> np.ndarray:
        """int64 posting-list length per requested term id."""
        term_ids = np.asarray(term_ids, dtype=np.int64)
        owner = self.shard_of(term_ids)
        lengths = np.zeros(term_ids.size, dtype=np.int64)
        for s in np.unique(owner):
            shard = self.shards[int(s)]
            sel = owner == s
            local = term_ids[sel] - shard.lo
            lengths[sel] = shard.offsets[local + 1].astype(np.int64) - shard.offsets[local]
        return lengths

    def gather_postings(self, term_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posting lists of ``term_ids``, concatenated in request order."""
        term_ids = np.asarray(term_ids, dtype=np.int64)
        owner = self.shard_of(term_ids)
        lengths = self.posting_lengths(term_ids)
        offsets = np.zeros(term_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        payload_dtype = self.shards[0].instances.dtype if self.shards else INDEX_DTYPE
        out = np.empty(int(offsets[-1]), dtype=payload_dtype)
        for s in np.unique(owner):
            shard = self.shards[int(s)]
            sel = owner == s
            lens = lengths[sel]
            starts = shard.offsets[term_ids[sel] - shard.lo].astype(np.int64)
            src = np.repeat(starts, lens) + ragged_arange(lens)
            dst = np.repeat(offsets[:-1][sel], lens) + ragged_arange(lens)
            out[dst] = shard.instances[src]
        return offsets, out


def partition_postings(
    source: "SharedContentIndex | DensePostings", n_shards: int
) -> PostingShardSet:
    """Split a posting index into contiguous term-range shards.

    Term ids are cut into ``min(n_shards, n_terms)`` near-equal
    contiguous ranges (:func:`~repro.overlay.topology.shard_bounds`),
    each shard's offsets re-based to its own segment and narrowed to
    ``INDEX_DTYPE`` behind an explicit ``OverflowError`` guard.  Shard
    payloads are views into the source arrays — the split allocates
    only the small re-based offset arrays.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    dense = source.dense_postings() if isinstance(source, SharedContentIndex) else source
    bounds = shard_bounds(dense.n_terms, n_shards)
    limit = int(np.iinfo(INDEX_DTYPE).max)
    global_offsets = dense.posting_offsets
    shards = []
    for s in range(bounds.size - 1):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        start, stop = int(global_offsets[lo]), int(global_offsets[hi])
        if stop - start > limit:
            raise OverflowError(
                f"posting shard {s} (terms [{lo}, {hi})) holds {stop - start} "
                f"entries, exceeding the index dtype {INDEX_DTYPE.name} "
                f"(max {limit}); use more shards or widen INDEX_DTYPE"
            )
        offsets = (
            global_offsets[lo : hi + 1].astype(np.int64) - start
        ).astype(INDEX_DTYPE)
        instances = dense.posting_instances[start:stop]
        shards.append(PostingShard(lo=lo, hi=hi, offsets=offsets, instances=instances))
    return PostingShardSet(
        bounds=bounds, shards=tuple(shards), instance_peer=dense.instance_peer
    )


def intersect_postings(
    posting_offsets: np.ndarray,
    posting_instances: np.ndarray,
    key: tuple[int, ...],
) -> np.ndarray:
    """AND-intersect the posting lists of a canonical query key.

    Pure function of the CSR posting arrays, so shared-memory workers
    can evaluate queries against attached posting segments without a
    :class:`SharedContentIndex` instance.  ``key`` must hold distinct,
    in-range term ids; the shortest posting list is intersected first.
    This is the scalar reference path — batch callers go through
    :func:`intersect_postings_batch`.
    """
    postings = sorted(
        (
            posting_instances[posting_offsets[t] : posting_offsets[t + 1]]
            for t in key
        ),
        key=len,
    )
    result = postings[0]
    for p in postings[1:]:
        if result.size == 0:
            break
        result = np.intersect1d(result, p, assume_unique=True)
    return result


def intersect_postings_batch(
    provider: PostingsProvider, keys: Sequence[QueryKey]
) -> list[np.ndarray]:
    """AND-intersect every key's posting lists in grouped batch passes.

    The flat kernel behind :meth:`SharedContentIndex.match_batch`.
    Row ``i`` is bitwise-identical to
    ``intersect_postings(..., keys[i])`` — same instances, same order,
    same dtype.  Keys must hold distinct, in-range term ids.

    The speedup over the per-key ``np.intersect1d`` loop comes from
    three structural facts about Zipf query batches:

    * single-term keys resolve to zero-copy posting-list views;
    * multi-term keys *share* their popular non-seed terms, so keys
      are grouped by first filter term and each group's posting list
      is visited exactly once — painted into an epoch-stamped byte
      scratch, or binary-searched when the group is seed-light — while
      the per-key loop re-sorts that same list for every key;
    * almost no candidates survive the first filter, so later passes
      resolve with one vectorized binary search over the survivors
      instead of materializing the longest posting lists at all.
    """
    n_keys = len(keys)
    if n_keys == 0:
        return []
    key_lens = np.fromiter((len(key) for key in keys), dtype=np.int64, count=n_keys)
    if key_lens.min() < 1:
        raise ValueError("a query needs at least one term")
    total_terms = int(key_lens.sum())
    terms_flat = np.fromiter(
        (t for key in keys for t in key), dtype=np.int64, count=total_terms
    )
    if isinstance(provider, DensePostings):
        # Global CSR: slice the provider's arrays directly.
        offsets = provider.posting_offsets.astype(np.int64)
        instances = provider.posting_instances
        local = terms_flat
    else:
        # One bulk gather of the distinct terms builds a local CSR the
        # rest of the kernel treats exactly like the dense case.
        uniq, local = np.unique(terms_flat, return_inverse=True)
        off32, instances = provider.gather_postings(uniq)
        offsets = off32.astype(np.int64)
    lens = offsets[local + 1] - offsets[local]
    key_starts = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(key_lens, out=key_starts[1:])
    key_of_term = np.repeat(np.arange(n_keys, dtype=np.int64), key_lens)
    # Shortest-list-first within each key, matching the scalar path.
    order = np.lexsort((lens, key_of_term))
    local_sorted = local[order]
    seeds = local_sorted[key_starts[:-1]]
    rows: list[np.ndarray | None] = [None] * n_keys
    for i in np.flatnonzero(key_lens == 1):
        t = int(seeds[i])
        rows[i] = instances[int(offsets[t]) : int(offsets[t + 1])]
    multi = np.flatnonzero(key_lens > 1)
    if multi.size == 0:
        return cast("list[np.ndarray]", rows)

    # Pass 1, grouped by first filter term: scatter each group's list
    # into the scratch once, test every member key's seed against it.
    first = local_sorted[key_starts[multi] + 1]
    grp = np.argsort(first, kind="stable")
    morder = multi[grp]
    first = first[grp]
    seed_g = seeds[morder]
    seed_lens = offsets[seed_g + 1] - offsets[seed_g]
    cand = np.concatenate(
        [instances[int(offsets[t]) : int(offsets[t + 1])] for t in seed_g]
    )
    cand_starts = np.zeros(morder.size + 1, dtype=np.int64)
    np.cumsum(seed_lens, out=cand_starts[1:])
    bounds = np.flatnonzero(np.r_[True, first[1:] != first[:-1], True])
    group_terms = first[bounds[:-1]]
    group_lens = offsets[group_terms + 1] - offsets[group_terms]
    group_cands = cand_starts[bounds[1:]] - cand_starts[bounds[:-1]]
    # Per-group cost model: scattering a list of length L costs one
    # write plus one reset per entry; a binary search costs a deep
    # cache-missing probe chain per candidate.  Seed-light groups with
    # heavy lists (L > 8*S) search the list instead of painting it —
    # and their lists then never need to be materialized at all.
    use_search = group_lens > 8 * group_cands
    # Widen the candidate gather index once — fancy indexing would
    # copy each int32 chunk to intp per call otherwise.
    cand64 = cand.astype(np.int64)
    found = np.empty(cand.size, dtype=bool)
    # A byte-wide scratch keeps the randomly-accessed working set small
    # enough to stay cache-resident; stamping each group with its own
    # epoch byte makes stale marks harmless, so the per-group reset
    # scatter (as expensive as the paint itself) disappears — one bulk
    # memset every 255 groups is all the cleaning left.  Allocated
    # through the sanitizer so REPRO_SANITIZE=shm poisons it on release
    # (stale reuse breaks bitwise parity loudly instead of silently).
    from repro.runtime.sanitize import scratch_alloc, scratch_release

    scratch = scratch_alloc(provider.n_instances, np.uint8)
    epoch = 0
    try:
        for b in range(bounds.size - 1):
            c0 = int(cand_starts[int(bounds[b])])
            c1 = int(cand_starts[int(bounds[b + 1])])
            if use_search[b]:
                t = int(group_terms[b])
                seg = instances[int(offsets[t]) : int(offsets[t + 1])]
                vals = cand[c0:c1]
                idx = np.searchsorted(seg, vals)
                inb = idx < seg.size
                found[c0:c1] = inb & (seg[np.minimum(idx, seg.size - 1)] == vals)
            else:
                epoch += 1
                if epoch == 256:
                    scratch[:] = 0
                    epoch = 1
                t = int(group_terms[b])
                seg = instances[int(offsets[t]) : int(offsets[t + 1])]
                scratch[seg] = epoch
                found[c0:c1] = scratch[cand64[c0:c1]] == epoch
    finally:
        scratch_release(scratch)
    # Survivors per seed slot: a segmented count beats materializing a
    # candidate-wide slot-id repeat (pass-1 kills ~97% of candidates).
    cand = cand[found]
    if int(seed_lens.min()) > 0:
        slot_counts = np.add.reduceat(found, cand_starts[:-1], dtype=np.int64)
        key_slot = np.repeat(np.arange(morder.size, dtype=np.int64), slot_counts)
    else:  # empty posting list in a provider-supplied CSR
        key_slot = np.repeat(np.arange(morder.size, dtype=np.int64), seed_lens)[found]

    # Passes >= 2: the surviving candidates binary-search their key's
    # p-th list in place — no posting list is materialized again.
    max_terms = int(key_lens.max())
    for p in range(2, max_terms):
        if cand.size == 0:
            break
        term_of_slot = np.full(morder.size, -1, dtype=np.int64)
        has = np.flatnonzero(key_lens[morder] > p)
        term_of_slot[has] = local_sorted[key_starts[morder[has]] + p]
        t_of_cand = term_of_slot[key_slot]
        active = t_of_cand >= 0
        if not active.any():
            continue
        ta = t_of_cand[active]
        lo, hi = offsets[ta], offsets[ta + 1]
        stop = hi
        vals = cand[active]
        width = int((hi - lo).max())
        for _ in range(max(width, 1).bit_length()):
            mid = (lo + hi) >> 1
            probe = instances[np.minimum(mid, instances.size - 1)]
            less = probe < vals
            lo = np.where(less, mid + 1, lo)
            hi = np.where(less, hi, mid)
        in_seg = lo < stop
        hit = instances[np.minimum(lo, instances.size - 1)] == vals
        keep = ~active
        keep[active] = in_seg & hit
        cand = cand[keep]
        key_slot = key_slot[keep]

    counts = np.bincount(key_slot, minlength=morder.size)
    row_offsets = np.zeros(morder.size + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    for j, i in enumerate(morder):
        rows[i] = cand[row_offsets[j] : row_offsets[j + 1]]
    return cast("list[np.ndarray]", rows)


def _stream_postings(
    trace: GnutellaShareTrace, term_index: TermIndex, block: int, n_shards: int
) -> tuple[np.ndarray, np.ndarray]:
    """Build CSR postings block-by-block without the full pair array.

    Instances are tokenized in ``block``-sized slices; each slice's
    ``(term, origin)`` pairs are deduplicated locally (a term repeats
    only within one instance's name, and an instance lives in exactly
    one block, so local dedup equals global dedup), narrowed to
    ``INDEX_DTYPE`` and appended to the owning term-range shard.  One
    stable per-shard sort then yields exactly the arrays the in-memory
    path produces — bitwise-identical output, peak transient memory
    bounded by the narrowed chunks instead of the whole int64
    ``terms``/``origin`` expansion.
    """
    if block < 1:
        raise ValueError(f"stream_block must be positive, got {block}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n_terms = term_index.n_terms
    _check_posting_width(n_terms, trace.n_instances, 0)
    bounds = shard_bounds(n_terms, n_shards)
    n_segments = bounds.size - 1
    term_chunks: list[list[np.ndarray]] = [[] for _ in range(n_segments)]
    origin_chunks: list[list[np.ndarray]] = [[] for _ in range(n_segments)]
    for lo in range(0, trace.n_instances, block):
        hi = min(lo + block, trace.n_instances)
        terms, origin = term_index.expand(trace.name_ids[lo:hi])
        width = hi - lo
        pairs = np.unique(
            encode_pairs(terms, origin, width, what="term/instance pairs")
        )
        terms = pairs // width
        origin = pairs % width + lo
        cuts = np.searchsorted(terms, bounds[1:-1])
        for s, (t, o) in enumerate(
            zip(np.split(terms, cuts), np.split(origin, cuts))
        ):
            if t.size:
                term_chunks[s].append(t.astype(INDEX_DTYPE))
                origin_chunks[s].append(o.astype(INDEX_DTYPE))
    counts = np.zeros(n_terms, dtype=np.int64)
    segments: list[np.ndarray] = []
    for s in range(n_segments):
        if not term_chunks[s]:
            continue
        t_all = np.concatenate(term_chunks[s])
        o_all = np.concatenate(origin_chunks[s])
        term_chunks[s] = []
        origin_chunks[s] = []
        counts += np.bincount(t_all, minlength=n_terms)
        # Chunks arrive in ascending-origin block order, so a stable
        # sort by term leaves each posting list sorted.
        segments.append(o_all[np.argsort(t_all, kind="stable")])
    offsets = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    instances = (
        np.concatenate(segments) if segments else np.empty(0, dtype=INDEX_DTYPE)
    )
    return offsets, instances


@dataclass(frozen=True)
class BatchMatches:
    """Oracle match sets of a query batch, deduplicated, in CSR form.

    ``distinct_index[i]`` names the row of the distinct-query CSR
    (``offsets``/``instances``) holding query ``i``'s matches, so
    repeated queries share one stored match set.  Rows are sorted
    instance-id arrays, bitwise equal to what
    :meth:`SharedContentIndex.match` returns for the same query.
    """

    distinct_index: np.ndarray
    offsets: np.ndarray
    instances: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return self.distinct_index.size

    @property
    def n_distinct(self) -> int:
        """Number of distinct queries actually evaluated."""
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        """Matching-instance count per query (oracle result counts)."""
        return np.diff(self.offsets)[self.distinct_index]

    def query_instances(self, i: int) -> np.ndarray:
        """Sorted matching instance ids of query ``i``."""
        d = int(self.distinct_index[i])
        return self.instances[self.offsets[d] : self.offsets[d + 1]]

    def distinct_instances(self, d: int) -> np.ndarray:
        """Sorted matching instance ids of distinct row ``d``."""
        return self.instances[self.offsets[d] : self.offsets[d + 1]]


class SharedContentIndex:
    """Inverted index over shared-file instances.

    ``stream_block``/``n_shards`` are execution knobs only: the
    streaming builder accumulates per-shard ``INDEX_DTYPE`` posting
    chunks instead of materializing the full int64 term/origin pair
    array, but the resulting index is bitwise-identical to the
    in-memory build, so neither knob participates in artifact-cache
    digests.

    Attributes
    ----------
    n_peers, n_instances:
        the trace's peer and shared-instance counts.
    instance_peer:
        peer id per instance.
    term_index:
        tokenization of the distinct observed names.
    """

    def __init__(
        self,
        trace: GnutellaShareTrace,
        *,
        stream_block: int | None = None,
        n_shards: int = 1,
    ) -> None:
        self.n_peers = trace.n_peers
        self.n_instances = trace.n_instances
        self.instance_peer = trace.peer_of_instance
        self.term_index = TermIndex(trace.unique_names())
        _check_posting_width(self.term_index.n_terms, trace.n_instances, 0)
        if stream_block is None:
            terms, origin = self.term_index.expand(trace.name_ids)
            # Deduplicate repeated terms within one instance's name.
            pairs = np.unique(
                encode_pairs(
                    terms, origin, trace.n_instances, what="term/instance pairs"
                )
            )
            terms = pairs // trace.n_instances
            origin = pairs % trace.n_instances
            instances = origin[np.argsort(terms, kind="stable")]
            counts = np.bincount(terms, minlength=self.term_index.n_terms)
            offsets = np.zeros(self.term_index.n_terms + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
        else:
            offsets, instances = _stream_postings(
                trace, self.term_index, stream_block, n_shards
            )
        _check_posting_width(
            self.term_index.n_terms, trace.n_instances, int(offsets[-1])
        )
        self._posting_offsets = offsets.astype(INDEX_DTYPE, copy=False)
        self._posting_instances = instances.astype(INDEX_DTYPE, copy=False)
        #: bounded LRU over distinct query keys -> match arrays.
        self._match_cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()

    def __getstate__(self) -> dict[str, object]:
        # The memo cache is derived runtime state; keep pickles (e.g.
        # the on-disk artifact cache) lean and deterministic.
        state = dict(self.__dict__)
        state["_match_cache"] = OrderedDict()
        state.pop("peer_terms", None)
        return state

    @property
    def _posting_terms(self) -> np.ndarray:
        """Term id per posting entry (derived from the CSR offsets)."""
        return np.repeat(
            np.arange(self.term_index.n_terms, dtype=INDEX_DTYPE),
            np.diff(self._posting_offsets),
        )

    def dense_postings(self) -> DensePostings:
        """The index's own flat posting arrays as a provider."""
        return DensePostings(
            posting_offsets=self._posting_offsets,
            posting_instances=self._posting_instances,
            instance_peer=self.instance_peer,
        )

    def term_id(self, term: str) -> int | None:
        """Term id for a string, or ``None`` if the term matches nothing."""
        return self.term_index.terms.get(term)

    def posting(self, term_id: int) -> np.ndarray:
        """Sorted instance ids whose names contain ``term_id``."""
        lo = self._posting_offsets[term_id]
        hi = self._posting_offsets[term_id + 1]
        return self._posting_instances[lo:hi]

    @cached_property
    def peer_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct ``(peer, term)`` pair, sorted by peer, then term.

        Two int64 arrays, ``(peer, term)``.  Computed on first use and
        kept (never pickled): the mismatch and synopsis experiments
        both read it within one report, and the advertisement
        simulation reads each peer's terms from it.
        """
        n_terms = self.term_index.n_terms
        pairs = np.unique(
            encode_pairs(
                self.instance_peer[self._posting_instances],
                self._posting_terms,
                n_terms,
                what="peer/term pairs",
            )
        )
        peer, term = np.divmod(pairs, n_terms)
        return peer, term

    def term_peer_counts(self) -> np.ndarray:
        """Distinct-peer count per term — the paper's Fig. 3 quantity."""
        return np.bincount(self.peer_terms[1], minlength=self.term_index.n_terms)

    def query_key(self, terms: Sequence[str]) -> tuple[int, ...] | None:
        """Canonical identity of a query: sorted distinct term ids.

        ``None`` means the query contains a term absent from every
        shared name and therefore matches nothing.  Raises on an empty
        query, mirroring :meth:`match`.
        """
        if not terms:
            raise ValueError("a query needs at least one term")
        ids = set()
        for t in terms:
            tid = self.term_index.terms.get(t)
            if tid is None:
                return None
            ids.add(tid)
        return tuple(sorted(ids))

    def _cache_store(self, key: tuple[int, ...], result: np.ndarray) -> np.ndarray:
        """Insert one match result into the bounded LRU; return the stored row.

        A stored row owns its memory or slices the index's own posting
        array, nothing else.  A multi-term kernel row is a view of a
        per-call buffer (the survivors of a pass), and one cached view
        would keep that whole buffer alive.  Such a row is stored as a
        compact read-only copy.
        """
        if result.base is not None and not np.may_share_memory(
            result, self._posting_instances
        ):
            result = result.copy()
            result.flags.writeable = False
        self._match_cache[key] = result
        if len(self._match_cache) > _MATCH_CACHE_MAX:
            self._match_cache.popitem(last=False)
            metrics().inc("match.cache.evictions")
        return result

    @property
    def match_cache_nbytes(self) -> int:
        """Bytes the match LRU owns (rows slicing the postings own none)."""
        return sum(r.nbytes for r in self._match_cache.values() if r.base is None)

    def match_key(self, key: tuple[int, ...]) -> np.ndarray:
        """Matching instances for a canonical key, memoized.

        The cache is a bounded LRU over distinct keys; under a Zipf
        workload the popular repeated queries stay resident and cost
        one dict hit instead of a posting-list intersection.  Returned
        arrays are shared — treat them as read-only.
        """
        registry = metrics()
        cached = self._match_cache.get(key)
        if cached is not None:
            self._match_cache.move_to_end(key)
            registry.inc("match.cache.hits")
            return cached
        registry.inc("match.cache.misses")
        result = intersect_postings(
            self._posting_offsets, self._posting_instances, key
        )
        return self._cache_store(key, result)

    def match_keys(self, keys: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
        """Matching instances per canonical key, batch-kernel backed.

        Cache hits are served from the LRU; all misses go through one
        :func:`intersect_postings_batch` call over the index's own
        postings and land in the cache; the stored rows are what comes
        back.  Hit and miss counters tally once per element of ``keys``,
        matching a loop of :meth:`match_key` calls.
        """
        registry = metrics()
        results: list[np.ndarray | None] = []
        missing: dict[tuple[int, ...], list[int]] = {}
        for i, key in enumerate(keys):
            cached = self._match_cache.get(key)
            if cached is not None:
                self._match_cache.move_to_end(key)
                registry.inc("match.cache.hits")
                results.append(cached)
            else:
                registry.inc("match.cache.misses")
                results.append(None)
                missing.setdefault(key, []).append(i)
        if missing:
            miss_keys = list(missing)
            rows = intersect_postings_batch(self.dense_postings(), miss_keys)
            for key, row in zip(miss_keys, rows):
                row = self._cache_store(key, row)
                for i in missing[key]:
                    results[i] = row
        return cast("list[np.ndarray]", results)

    def prefetch_keys(self, keys: Sequence[tuple[int, ...]]) -> None:
        """Warm the match LRU for every key of a round in one kernel pass.

        The round's cached keys move to the LRU's recent end first,
        uncounted, so the round's own misses cannot evict them before
        the round reads them; the misses go through :meth:`match_keys`.
        """
        fresh = []
        for key in dict.fromkeys(keys):
            if key in self._match_cache:
                self._match_cache.move_to_end(key)
            else:
                fresh.append(key)
        if fresh:
            self.match_keys(fresh)

    def match(self, terms: Sequence[str]) -> np.ndarray:
        """Instances whose names contain all ``terms`` (AND semantics).

        Returns a sorted instance-id array; empty if any term is
        unknown (an unknown term can match no file).
        """
        key = self.query_key(terms)
        if key is None:
            return np.empty(0, dtype=self._posting_instances.dtype)
        return self.match_key(key)

    def match_batch(self, queries: Sequence[Sequence[str]]) -> BatchMatches:
        """Evaluate a workload of queries in one deduplicated pass.

        Queries are deduplicated by term-id tuple, all distinct misses
        are intersected in one batch-kernel call (through the memoized
        cache), and the per-query match sets come back as one
        :class:`BatchMatches` CSR structure.  Row ``i`` equals
        ``match(queries[i])`` bitwise; a query with an unknown term
        gets an empty row; an empty query raises, as :meth:`match`
        does.
        """
        distinct_index = np.zeros(len(queries), dtype=np.int64)
        slot_of: dict[tuple[int, ...] | None, int] = {}
        slot_keys: list[tuple[int, ...] | None] = []
        for i, q in enumerate(queries):
            key = self.query_key(q)
            slot = slot_of.get(key)
            if slot is None:
                slot = len(slot_keys)
                slot_of[key] = slot
                slot_keys.append(key)
            distinct_index[i] = slot
        known = [key for key in slot_keys if key is not None]
        matched = dict(zip(known, self.match_keys(known)))
        empty = np.empty(0, dtype=self._posting_instances.dtype)
        rows = [empty if key is None else matched[key] for key in slot_keys]
        lengths = np.fromiter(
            (r.size for r in rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        instances = np.concatenate(rows) if rows else empty
        return BatchMatches(
            distinct_index=distinct_index, offsets=offsets, instances=instances
        )

    def matching_peers(self, terms: Sequence[str]) -> np.ndarray:
        """Distinct peers holding at least one file matching ``terms``."""
        return np.unique(self.instance_peer[self.match(terms)])

    def peer_results(self, terms: Sequence[str], peer_mask: np.ndarray) -> np.ndarray:
        """Matching instances restricted to peers where ``peer_mask`` is True."""
        hits = self.match(terms)
        return hits[peer_mask[self.instance_peer[hits]]]
