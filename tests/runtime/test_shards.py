"""Tests for repro.runtime.shards (the sharded flood runner).

Also covers the shm owners publishing pre-partitioned shard sets, as
the runner does, and :class:`~repro.runtime.shm.ShardedPostings`
against the sharded content kernels.  The owners' contract over
unpartitioned sources is in ``test_shm.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.obs import completed_spans, metrics
from repro.overlay.batch import BatchQueryEngine
from repro.overlay.flooding import FloodDepthCache, flood_depths, flood_depths_batch
from repro.overlay.sharding import partition_topology
from repro.overlay.topology import two_tier_gnutella
from repro.runtime.shards import ShardedFloodRunner
from repro.runtime.shm import SharedTopology, attach_topology


@pytest.fixture(scope="module")
def topo():
    return two_tier_gnutella(1_200, seed=21)


class TestShardedTopology:
    """:class:`SharedTopology` over a pre-partitioned :class:`ShardSet`."""

    def test_publish_attach_roundtrip(self, topo):
        for n_shards in (1, 3):
            shard_set = partition_topology(topo, n_shards)
            with SharedTopology(shard_set) as share:
                attached = attach_topology(share.spec)
                np.testing.assert_array_equal(attached.bounds, shard_set.bounds)
                np.testing.assert_array_equal(attached.forwards, shard_set.forwards)
                np.testing.assert_array_equal(
                    attached.boundary_counts, shard_set.boundary_counts
                )
                assert attached.n_shards == shard_set.n_shards
                for got, want in zip(attached.shards, shard_set.shards):
                    assert (got.lo, got.hi) == (want.lo, want.hi)
                    np.testing.assert_array_equal(got.offsets, want.offsets)
                    np.testing.assert_array_equal(got.neighbors, want.neighbors)

    def test_attach_is_cached(self, topo):
        with SharedTopology(partition_topology(topo, 2)) as share:
            assert attach_topology(share.spec) is attach_topology(share.spec)

    def test_spec_is_hashable_and_picklable(self, topo):
        with SharedTopology(partition_topology(topo, 2)) as share:
            restored = pickle.loads(pickle.dumps(share.spec))
            assert restored == share.spec
            assert hash(restored) == hash(share.spec)

    def test_conflicting_n_shards_rejected(self, topo):
        shard_set = partition_topology(topo, 3)
        with pytest.raises(ValueError, match="already partitioned"):
            SharedTopology(shard_set, n_shards=4)  # simlint: ignore[SIM012] the constructor raises before it allocates a segment
        with SharedTopology(shard_set, n_shards=3) as share:
            assert len(share.spec.shards) == 3

    def test_close_is_idempotent(self, topo):
        share = SharedTopology(partition_topology(topo, 2))  # simlint: ignore[SIM012] the test exercises manual close() semantics
        share.close()
        share.close()


class TestShardedFloodRunner:
    @pytest.mark.parametrize("n_shards", (1, 2, 5))
    @pytest.mark.parametrize("n_workers", (1, 2, 3))
    def test_bitwise_identity_across_pool_shapes(self, topo, n_shards, n_workers):
        sources = np.array([0, 451, 1_199])
        ref_depth, ref_messages = flood_depths(topo, sources, 6)
        with ShardedFloodRunner(
            topo, n_shards=n_shards, n_workers=n_workers
        ) as runner:
            depth, messages = runner.flood_depths(sources, 6)
            assert np.array_equal(depth, ref_depth)
            assert messages == ref_messages

    def test_worker_count_capped_by_shards(self, topo):
        with ShardedFloodRunner(topo, n_shards=2, n_workers=16) as runner:
            assert runner.n_workers <= 2

    def test_provider_through_flood_depth_cache(self, topo):
        sources = np.array([3, 3, 77, 900])
        ref = flood_depths_batch(topo, sources, 5)
        with ShardedFloodRunner(topo, n_shards=3, n_workers=2) as runner:
            cache = FloodDepthCache(provider=runner)
            got = flood_depths_batch(topo, sources, 5, cache=cache)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])

    def test_provider_through_batch_engine(self, small_content):
        content_topo = two_tier_gnutella(small_content.n_peers, seed=4)
        queries = [["love"], ["the"], ["you"]]
        sources = np.array([0, 7, 100])
        plain = BatchQueryEngine(content_topo, small_content)
        ref = plain.evaluate(sources, queries, ttl_schedule=(3,))
        with ShardedFloodRunner(content_topo, n_shards=2) as runner:
            sharded = BatchQueryEngine(
                content_topo, small_content, depth_provider=runner
            )
            got = sharded.evaluate(sources, queries, ttl_schedule=(3,))
            np.testing.assert_array_equal(got.success, ref.success)
            np.testing.assert_array_equal(got.n_results, ref.n_results)
            np.testing.assert_array_equal(got.messages, ref.messages)
            np.testing.assert_array_equal(got.peers_probed, ref.peers_probed)

    def test_closed_runner_raises(self, topo):
        runner = ShardedFloodRunner(topo, n_shards=2)
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.flood_depths(0, 3)
        runner.close()  # idempotent

    def test_bfs_entry_misses_keep_the_span_store_flat(self, topo):
        def timed() -> int:
            timer = metrics().snapshot().timers.get("shard.bfs_entry")
            return 0 if timer is None else timer.count

        with ShardedFloodRunner(topo, n_shards=2) as runner:
            cache = FloodDepthCache(provider=runner, max_entries=1)
            spans, before = len(completed_spans()), timed()
            for source in range(200):
                cache.entry(source, 3)
            assert len(completed_spans()) == spans
            assert timed() == before + 200

    def test_accepts_prebuilt_shard_set(self, topo):
        shard_set = partition_topology(topo, 4)
        with ShardedFloodRunner(shard_set) as runner:
            assert runner.n_shards == 4
            ref = flood_depths(topo, 9, 4)
            got = runner.flood_depths(9, 4)
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]


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
            ShardedPostings(shard_set, n_shards=5)  # simlint: ignore[SIM012] the constructor raises before it allocates a segment

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
