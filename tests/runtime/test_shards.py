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
