"""Tests for repro.runtime.shm (the shared-memory transport).

Each owner's contract — round trip, cached attach, hashable and
picklable spec, read-only views, close unlinks and evicts, idempotent
close, an owner that refuses to pickle, ``pmap`` workers reading the
segments — is checked by the same helpers over every layout the owner
publishes: for :class:`SharedTopology` (its one flat CSR layout) in
the first three classes, and for :class:`ShardedPostings` at one and
three posting shards in the last.
"""

from __future__ import annotations

import os
import pickle
from functools import partial

import numpy as np
import pytest

from repro.obs import metrics
from repro.overlay.content import (
    DensePostings,
    intersect_postings,
    intersect_postings_batch,
    partition_postings,
)
from repro.overlay.topology import Topology, two_tier_gnutella
from repro.runtime.parallel import pmap
from repro.runtime.shm import (
    ShardedPostings,
    ShardedPostingsSpec,
    SharedTopology,
    SharedTopologySpec,
    attach_postings,
    attach_topology,
)

POSTING_SHARD_COUNTS = (1, 3)


def _topology_layouts(topo):
    """The one topology layout: (owner factory, what it publishes)."""
    yield partial(SharedTopology, topo), topo


def _posting_layouts(content):
    """Posting layouts at each shard count: (owner factory, local shards)."""
    for n_shards in POSTING_SHARD_COUNTS:
        yield (
            partial(ShardedPostings, content, n_shards=n_shards),
            partition_postings(content, n_shards),
        )


# (layouts, attach function, spec type) per artifact.
TOPOLOGY = (_topology_layouts, attach_topology, SharedTopologySpec)
POSTINGS = (_posting_layouts, attach_postings, ShardedPostingsSpec)


@pytest.fixture(scope="module")
def topo():
    return two_tier_gnutella(400, seed=9)


def _arrays(view) -> list[np.ndarray]:
    """Every array of a topology or posting shard set, in a fixed order."""
    if isinstance(view, Topology):
        return [view.offsets, view.neighbors, view.forwards]
    pairs = [(s.offsets, s.instances) for s in view.shards]
    return [view.bounds, view.instance_peer, *(a for pair in pairs for a in pair)]


def _check_roundtrip(artifact, source) -> None:
    layouts, attach, _ = artifact
    for publish, local in layouts(source):
        with publish() as share:
            got_arrays, want_arrays = _arrays(attach(share.spec)), _arrays(local)
            assert len(got_arrays) == len(want_arrays)
            for got, want in zip(got_arrays, want_arrays):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype


def _check_attach_is_cached(artifact, source) -> None:
    layouts, attach, _ = artifact
    for publish, _ in layouts(source):
        with publish() as share:
            assert attach(share.spec) is attach(share.spec)


def _check_spec_is_hashable_and_picklable(artifact, source) -> None:
    layouts, _, spec_type = artifact
    for publish, _ in layouts(source):
        with publish() as share:
            spec = share.spec
            assert isinstance(spec, spec_type)
            restored = pickle.loads(pickle.dumps(spec))
            assert restored == spec
            assert hash(restored) == hash(spec)


def _check_views_are_read_only(artifact, source) -> None:
    layouts, attach, _ = artifact
    for publish, _ in layouts(source):
        with publish() as share:
            for array in _arrays(attach(share.spec)):
                with pytest.raises((ValueError, RuntimeError)):
                    array[0] = -1


def _check_close_unlinks_and_evicts_cache(artifact, source) -> None:
    layouts, attach, _ = artifact
    for publish, _ in layouts(source):
        share = publish()
        spec = share.spec
        attach(spec)
        share.close()
        # The cached attachment is gone and the segments are unlinked,
        # so a fresh attach has nothing to map.
        with pytest.raises((FileNotFoundError, OSError)):
            attach(spec)


def _check_close_is_idempotent(artifact, source) -> None:
    layouts, _, _ = artifact
    for publish, _ in layouts(source):
        share = publish()
        share.close()
        share.close()


def _check_owner_refuses_pickling(artifact, source) -> None:
    layouts, _, _ = artifact
    for publish, _ in layouts(source):
        with publish() as share:
            with pytest.raises(TypeError, match=r"send its \.spec"):
                pickle.dumps(share)


def _owner_task(item: int, rng: np.random.Generator, *, owner=None) -> int:
    """Worker whose partial carries an owner handle instead of its spec."""
    return item


def _remote_degree_sum(item: int, rng: np.random.Generator, *, spec=None) -> int:
    """Worker that maps the shared topology and sums its degrees."""
    return int(np.diff(attach_topology(spec).offsets).sum()) + item


def _remote_posting_sum(item: int, rng: np.random.Generator, *, spec=None) -> int:
    """Worker that maps the shared postings and sums the instances."""
    shard_set = attach_postings(spec)
    return sum(int(s.instances.sum()) for s in shard_set.shards) + item


class TestRoundtrip:
    def test_arrays_survive_publication(self, topo):
        _check_roundtrip(TOPOLOGY, topo)

    def test_flat_views_match_the_sources(self, topo, small_content):
        dense = small_content.dense_postings()
        with SharedTopology(topo) as topo_share, ShardedPostings(
            small_content
        ) as post_share:
            # The attachment is the flat kernels' own input type.
            attached = attach_topology(topo_share.spec)
            assert isinstance(attached, Topology)
            flat_post = attach_postings(post_share.spec).flat()
            assert isinstance(flat_post, DensePostings)
            for got, want in (
                (attached.offsets, topo.offsets),
                (attached.neighbors, topo.neighbors),
                (attached.forwards, topo.forwards),
                (flat_post.posting_offsets, dense.posting_offsets),
                (flat_post.posting_instances, dense.posting_instances),
                (flat_post.instance_peer, dense.instance_peer),
            ):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
                assert got.flags.writeable is False
            del attached, flat_post

    def test_attach_is_cached(self, topo):
        _check_attach_is_cached(TOPOLOGY, topo)

    def test_spec_is_hashable_and_picklable(self, topo):
        _check_spec_is_hashable_and_picklable(TOPOLOGY, topo)

    def test_views_are_read_only(self, topo):
        _check_views_are_read_only(TOPOLOGY, topo)


class TestLifecycle:
    def test_close_unlinks_and_evicts_cache(self, topo):
        _check_close_unlinks_and_evicts_cache(TOPOLOGY, topo)

    def test_close_is_idempotent(self, topo):
        _check_close_is_idempotent(TOPOLOGY, topo)

    def test_owner_refuses_pickling(self, topo):
        _check_owner_refuses_pickling(TOPOLOGY, topo)


def _segment_paths(share) -> list[str]:
    return ["/dev/shm/" + array.name for array in share.spec.arrays()]


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem required"
)
class TestUnclosedOwners:
    """The garbage-collection net closes a dropped owner and counts it."""

    @pytest.mark.unclosed_owners(2)
    def test_dropped_owner_is_counted_and_unlinked(self, topo, small_content):
        for publish in (
            partial(SharedTopology, topo),
            partial(ShardedPostings, small_content, n_shards=2),
        ):
            before = metrics().counter("shm.unclosed_owners")
            share = publish()
            paths = _segment_paths(share)
            assert all(os.path.exists(path) for path in paths)
            del share
            assert metrics().counter("shm.unclosed_owners") - before == 1
            assert not any(os.path.exists(path) for path in paths)

    def test_closed_owner_is_not_counted(self, topo, small_content):
        for publish in (
            partial(SharedTopology, topo),
            partial(ShardedPostings, small_content, n_shards=2),
        ):
            before = metrics().counter("shm.unclosed_owners")
            share = publish()
            paths = _segment_paths(share)
            share.close()
            del share
            assert metrics().counter("shm.unclosed_owners") == before
            assert not any(os.path.exists(path) for path in paths)


class TestCrossProcess:
    def test_workers_read_shared_topology(self):
        topo = two_tier_gnutella(600, seed=9)
        expected = int(np.asarray(topo.degree()).sum())
        with SharedTopology(topo) as share:
            task = partial(_remote_degree_sum, spec=share.spec)
            results = pmap(task, [0, 1, 2, 3], seed=0, key="shm", n_workers=2)
        assert results == [expected + i for i in range(4)]

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem required"
    )
    def test_shipping_the_owner_raises_and_keeps_its_segments(self, topo):
        # An unpickled owner copy would unlink the segments when a
        # worker dropped it, and the pool would die with them.
        with SharedTopology(topo) as share:
            paths = _segment_paths(share)
            task = partial(_owner_task, owner=share)
            with pytest.raises(TypeError, match="cannot be pickled"):
                pmap(task, [0, 1, 2, 3], seed=0, key="shm-owner", n_workers=2)
            assert all(os.path.exists(path) for path in paths)


class TestSharedPostings:
    """The contract for :class:`ShardedPostings` over a content index."""

    def test_arrays_survive_publication(self, small_content):
        _check_roundtrip(POSTINGS, small_content)

    def test_attach_is_cached(self, small_content):
        _check_attach_is_cached(POSTINGS, small_content)

    def test_spec_is_hashable_and_picklable(self, small_content):
        _check_spec_is_hashable_and_picklable(POSTINGS, small_content)

    def test_views_are_read_only(self, small_content):
        _check_views_are_read_only(POSTINGS, small_content)

    def test_close_unlinks_and_evicts_cache(self, small_content):
        _check_close_unlinks_and_evicts_cache(POSTINGS, small_content)

    def test_close_is_idempotent(self, small_content):
        _check_close_is_idempotent(POSTINGS, small_content)

    def test_owner_refuses_pickling(self, small_content):
        _check_owner_refuses_pickling(POSTINGS, small_content)

    def test_intersections_match_local_index(self, small_content):
        keys = [(0,), (0, 1), (3, 5)]
        expected = [small_content.match_key(key) for key in keys]
        for n_shards in POSTING_SHARD_COUNTS:
            with ShardedPostings(small_content, n_shards=n_shards) as share:
                provider = attach_postings(share.spec)
                rows = intersect_postings_batch(provider, keys)
                for got, want in zip(rows, expected):
                    np.testing.assert_array_equal(got, want)
                if n_shards == 1:
                    # The scalar kernel reads the one-shard flat view.
                    flat = provider.flat()
                    for key, want in zip(keys, expected):
                        got = intersect_postings(
                            flat.posting_offsets, flat.posting_instances, key
                        )
                        np.testing.assert_array_equal(got, want)
                    del flat
                del provider, rows, got

    def test_workers_read_shared_postings(self, small_content):
        expected = int(small_content._posting_instances.sum())
        for n_shards in POSTING_SHARD_COUNTS:
            with ShardedPostings(small_content, n_shards=n_shards) as share:
                task = partial(_remote_posting_sum, spec=share.spec)
                results = pmap(task, [0, 1], seed=0, key="shm-post", n_workers=2)
            assert results == [expected, expected + 1]
