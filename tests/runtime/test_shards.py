"""Tests for :class:`~repro.runtime.shm.ShardedPostings` over posting shards.

Publishing pre-partitioned posting shard sets and the sharded content
kernels reading them.  The owners' shared contract is in
``test_shm.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest


class TestShardedPostings:
    @pytest.fixture(scope="class")
    def content(self, small_trace):
        from repro.overlay.content import SharedContentIndex

        return SharedContentIndex(small_trace)

    def test_publish_attach_roundtrip(self, content):
        from repro.overlay.content import partition_postings
        from repro.runtime.shm import ShardedPostings, attach_postings

        local = partition_postings(content, 3)
        with ShardedPostings(local) as share:
            attached = attach_postings(share.spec)
            assert attached.n_shards == 3
            assert attached.spec is share.spec
            np.testing.assert_array_equal(attached.bounds, local.bounds)
            np.testing.assert_array_equal(
                attached.instance_peer, local.instance_peer
            )
            for got, want in zip(attached.shards, local.shards):
                assert (got.lo, got.hi) == (want.lo, want.hi)
                np.testing.assert_array_equal(got.offsets, want.offsets)
                np.testing.assert_array_equal(got.instances, want.instances)
                assert got.offsets.dtype == want.offsets.dtype

    def test_spec_is_picklable_and_dispatchable(self, content):
        from repro.overlay.content import DensePostings, PostingShardSet
        from repro.runtime.shm import ShardedPostings, attach_postings

        for n_shards in (1, 3):
            with ShardedPostings(content, n_shards=n_shards) as share:
                assert pickle.loads(pickle.dumps(share.spec)) == share.spec
                attached = attach_postings(share.spec)
                assert isinstance(attached, PostingShardSet)
                if n_shards == 1:
                    assert isinstance(attached.flat(), DensePostings)
                else:
                    with pytest.raises(ValueError, match="exactly one shard"):
                        attached.flat()

    def test_prepartitioned_source_keeps_layout(self, content):
        from repro.overlay.content import partition_postings
        from repro.runtime.shm import ShardedPostings

        shard_set = partition_postings(content, 4)
        with ShardedPostings(shard_set) as share:
            assert share.provider.n_shards == 4
        with ShardedPostings(shard_set, n_shards=4) as share:
            assert len(share.spec.shards) == 4
        with pytest.raises(ValueError, match="n_shards"):
            ShardedPostings(shard_set, n_shards=5)

    def test_attached_provider_matches_queries(self, content):
        from repro.overlay.content import intersect_postings_batch
        from repro.runtime.shm import ShardedPostings

        keys = [(t,) for t in range(0, 50, 7)] + [(0, 1)]
        dense_rows = intersect_postings_batch(content.dense_postings(), keys)
        for n_shards in (1, 3):
            with ShardedPostings(content, n_shards=n_shards) as share:
                shard_rows = intersect_postings_batch(share.provider, keys)
            for a, b in zip(dense_rows, shard_rows):
                np.testing.assert_array_equal(a, b)


def _root(array: np.ndarray) -> np.ndarray:
    """The array at the end of ``array``'s base chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _assert_rows_own_their_memory(content) -> None:
    """Every cached row owns its memory or slices the index's postings."""
    postings = _root(content.dense_postings().posting_instances)
    for key, row in content._match_cache.items():
        assert row.base is None or _root(row) is postings, key


def _retained_bytes(content) -> int:
    """Bytes of the distinct buffers the match cache keeps alive.

    The index's own posting array is not counted: it lives as long as
    the index, cached or not.
    """
    postings = _root(content.dense_postings().posting_instances)
    roots = {id(r): r for r in map(_root, content._match_cache.values())}
    return sum(r.nbytes for r in roots.values() if r is not postings)


class TestMatchCacheRows:
    """What the match LRU keeps: its own rows, never a batch's buffers."""

    @pytest.fixture(scope="class")
    def keys(self, small_content, small_workload):
        from repro.serve.load import build_query_pool

        pool = build_query_pool(small_workload, 2_000)
        keys = [small_content.query_key(q) for q in pool]
        return [k for k in keys if k is not None]

    def test_cached_rows_own_their_memory(self, small_trace, keys):
        from repro.overlay.content import SharedContentIndex, intersect_postings

        content = SharedContentIndex(small_trace)
        content.prefetch_keys(keys[:600])
        _assert_rows_own_their_memory(content)
        assert content.match_cache_nbytes == _retained_bytes(content)
        assert content._match_cache
        for key, row in content._match_cache.items():
            expected = intersect_postings(
                content._posting_offsets, content._posting_instances, key
            )
            np.testing.assert_array_equal(row, expected)
            assert row.dtype == expected.dtype

    def test_cache_keeps_no_batch_buffer_alive(self, small_trace, keys):
        from repro.overlay.batch import BatchQueryEngine
        from repro.overlay.content import SharedContentIndex
        from repro.overlay.topology import flat_random
        from repro.utils.rng import make_rng

        content = SharedContentIndex(small_trace)
        topology = flat_random(content.n_peers, 6.0, seed=7)
        rng = make_rng(13)
        engine = BatchQueryEngine(topology, content)
        for _ in range(30):
            picks = rng.choice(len(keys), size=64, replace=False)
            engine.evaluate_keys(
                rng.integers(0, content.n_peers, size=picks.size),
                [keys[int(p)] for p in picks],
                ttl_schedule=(1,),
            )
        rows = content._match_cache.values()
        row_bytes = sum(r.nbytes for r in rows)
        assert len(content._match_cache) > 500
        assert _retained_bytes(content) <= row_bytes
