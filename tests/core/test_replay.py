"""Tests for repro.core.replay — the unified strategy comparison engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import TraceBundle
from repro.core.replay import (
    DhtStrategy,
    ExpandingRingStrategy,
    FloodStrategy,
    HybridStrategy,
    WalkStrategy,
    replay,
)
from repro.dht.chord import ChordRing
from repro.dht.keyword_index import KeywordIndex
from repro.hybrid.search import HybridSearch
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.topology import flat_random


@pytest.fixture(scope="module")
def small_bundle(small_catalog, small_trace, small_workload):
    from repro.tracegen.query_trace import file_term_peer_counts

    return TraceBundle(
        catalog=small_catalog,
        trace=small_trace,
        workload=small_workload,
        file_term_counts=file_term_peer_counts(small_trace),
    )


@pytest.fixture(scope="module")
def stack(small_content):
    network = UnstructuredNetwork(
        flat_random(small_content.n_peers, 6.0, seed=9), small_content
    )
    ring = ChordRing(small_content.n_peers, seed=9)
    index = KeywordIndex(ring, small_content)
    return network, index


class TestReplay:
    def test_all_strategy_types(self, small_bundle, stack):
        network, index = stack
        strategies = [
            FloodStrategy(network, ttl=2),
            WalkStrategy(network, walkers=4, ttl=20),
            ExpandingRingStrategy(network, ttl_schedule=(1, 2)),
            DhtStrategy(index),
            HybridStrategy(HybridSearch(network, index, flood_ttl=2)),
        ]
        results = replay(small_bundle, strategies, n_queries=25, seed=1)
        assert len(results) == 5
        for stats in results:
            assert 0.0 <= stats.success_rate <= 1.0
            assert stats.mean_messages >= 0
            assert stats.n_queries == 25

    def test_identical_sample_across_strategies(self, small_bundle, stack):
        """Two copies of the same strategy must get identical stats."""
        network, _ = stack
        a, b = FloodStrategy(network, ttl=2), FloodStrategy(network, ttl=2)
        ra, rb = replay(small_bundle, [a, b], n_queries=20, seed=2)
        assert ra.success_rate == rb.success_rate
        assert ra.mean_messages == rb.mean_messages

    def test_dht_dominates_flood_success(self, small_bundle, stack):
        """The DHT resolves everything resolvable; a TTL-1 flood can't."""
        network, index = stack
        flood, dht = replay(
            small_bundle,
            [FloodStrategy(network, ttl=1), DhtStrategy(index)],
            n_queries=40,
            seed=3,
        )
        assert dht.success_rate >= flood.success_rate

    def test_bloom_dht_cheaper_than_naive(self, small_bundle, stack):
        _, index = stack
        naive, bloom = replay(
            small_bundle,
            [
                DhtStrategy(index, intersection="ship-postings"),
                DhtStrategy(index, intersection="bloom"),
            ],
            n_queries=40,
            seed=4,
        )
        assert naive.success_rate == bloom.success_rate
        assert bloom.mean_messages <= naive.mean_messages

    def test_deterministic(self, small_bundle, stack):
        network, _ = stack
        a = replay(small_bundle, [FloodStrategy(network, ttl=2)], n_queries=15, seed=7)
        b = replay(small_bundle, [FloodStrategy(network, ttl=2)], n_queries=15, seed=7)
        assert a[0] == b[0]

    def test_source_pool_respected(self, small_bundle, stack):
        network, _ = stack

        class RecordingStrategy:
            name = "recorder"

            def __init__(self):
                self.sources = []

            def search(self, source, terms):
                self.sources.append(source)
                return False, 0.0

        rec = RecordingStrategy()
        replay(small_bundle, [rec], n_queries=10, source_pool=np.array([5, 6]), seed=0)
        assert set(rec.sources) <= {5, 6}

    def test_validation(self, small_bundle):
        with pytest.raises(ValueError, match="strategy"):
            replay(small_bundle, [], n_queries=5)
        with pytest.raises(ValueError, match="n_queries"):
            replay(small_bundle, [object()], n_queries=0)  # type: ignore[list-item]


class _ScalarOnly:
    """Strategy facade hiding ``search_batch`` to force the scalar path."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name + "-scalar"

    def search(self, source, terms):
        return self._inner.search(source, terms)


class TestBatchedReplay:
    def test_flood_batched_equals_scalar(self, small_bundle, stack):
        network, _ = stack
        batched = FloodStrategy(network, ttl=2)
        scalar = _ScalarOnly(FloodStrategy(network, ttl=2))
        rb, rs = replay(small_bundle, [batched, scalar], n_queries=30, seed=5)
        assert rb.success_rate == rs.success_rate
        assert rb.mean_messages == rs.mean_messages

    def test_expanding_ring_batched_equals_scalar(self, small_bundle, stack):
        network, _ = stack
        batched = ExpandingRingStrategy(network, ttl_schedule=(1, 2, 3))
        scalar = _ScalarOnly(ExpandingRingStrategy(network, ttl_schedule=(1, 2, 3)))
        rb, rs = replay(small_bundle, [batched, scalar], n_queries=25, seed=6)
        assert rb.success_rate == rs.success_rate
        assert rb.mean_messages == rs.mean_messages
