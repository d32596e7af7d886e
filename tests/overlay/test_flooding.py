"""Tests for repro.overlay.flooding."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.overlay.flooding import (
    FloodDepthCache,
    flood,
    flood_depths,
    flood_depths_batch,
    reach_fractions,
)
from repro.overlay.topology import from_networkx


class TestFloodOnRing:
    def test_depths_match_cycle_distance(self, ring_topology):
        depth, _ = flood_depths(ring_topology, 0, 3)
        for v in range(12):
            d_true = min(v, 12 - v)
            assert depth[v] == (d_true if d_true <= 3 else -1)

    def test_reach_grows_with_ttl(self, ring_topology):
        reaches = [flood(ring_topology, 0, t).n_reached for t in range(0, 7)]
        assert reaches == [1, 3, 5, 7, 9, 11, 12]

    def test_messages_on_cycle(self, ring_topology):
        # TTL 1: source sends to its 2 neighbors.
        assert flood(ring_topology, 0, 1).messages == 2
        # TTL 2: + each neighbor forwards to its 2 neighbors (duplicates
        # to the source included in the message count).
        assert flood(ring_topology, 0, 2).messages == 6


class TestFloodVsNetworkx:
    def test_depths_match_shortest_paths(self):
        g = nx.random_regular_graph(4, 60, seed=2)
        topo = from_networkx(nx.convert_node_labels_to_integers(g))
        depth, _ = flood_depths(topo, 0, 4)
        sp = nx.single_source_shortest_path_length(topo.to_networkx(), 0, cutoff=4)
        for v in range(topo.n_nodes):
            assert depth[v] == sp.get(v, -1)


class TestForwardingRules:
    def test_leaves_do_not_relay(self):
        # Path a(UP) - b(leaf) - c(UP): a's flood must stop at b.
        g = nx.path_graph(3)
        g.nodes[1]["forwards"] = False
        topo = from_networkx(g)
        depth, _ = flood_depths(topo, 0, 5)
        np.testing.assert_array_equal(depth, [0, 1, -1])

    def test_leaf_source_still_emits(self):
        g = nx.path_graph(3)
        g.nodes[0]["forwards"] = False
        topo = from_networkx(g)
        depth, _ = flood_depths(topo, 0, 5)
        np.testing.assert_array_equal(depth, [0, 1, 2])

    def test_two_tier_leaf_isolation(self, small_two_tier):
        # From an ultrapeer, any reached leaf is adjacent to a reached
        # ultrapeer one level shallower.
        depth, _ = flood_depths(small_two_tier, 0, 3)
        n_up = int(small_two_tier.forwards.sum())
        for v in range(n_up, small_two_tier.n_nodes):
            if depth[v] > 0:
                parents = small_two_tier.neighbors_of(v)
                assert (depth[parents] == depth[v] - 1).any()


class TestFloodApi:
    def test_ttl_zero_reaches_only_source(self, ring_topology):
        r = flood(ring_topology, 3, 0)
        assert r.n_reached == 1
        assert r.messages == 0
        np.testing.assert_array_equal(r.reached, [3])

    def test_multi_source(self, ring_topology):
        depth, _ = flood_depths(ring_topology, np.array([0, 6]), 2)
        assert (depth >= 0).sum() == 10

    def test_negative_ttl_raises(self, ring_topology):
        with pytest.raises(ValueError, match="non-negative"):
            flood(ring_topology, 0, -1)

    def test_monotone_reach_in_ttl(self, small_two_tier):
        reaches = [flood(small_two_tier, 0, t).n_reached for t in range(6)]
        assert all(a <= b for a, b in zip(reaches, reaches[1:]))


class TestFloodDepthCache:
    def test_entry_matches_kernel_at_every_ttl(self, small_two_tier):
        cache = FloodDepthCache(small_two_tier)
        entry = cache.entry(0, 5)
        for ttl in range(6):
            depth, messages = flood_depths(small_two_tier, 0, ttl)
            np.testing.assert_array_equal(entry.depth_at(ttl), depth)
            assert entry.messages(ttl) == messages
            assert entry.reached(ttl) == int((depth >= 0).sum())

    def test_exhausted_entry_covers_any_ttl(self, ring_topology):
        # A 12-cycle exhausts at depth 6; the entry must then answer
        # deeper TTLs without recomputation.
        cache = FloodDepthCache(ring_topology)
        entry = cache.entry(0, 8)
        assert entry.exhausted
        assert entry.supports(100)
        depth, messages = flood_depths(ring_topology, 0, 50)
        np.testing.assert_array_equal(entry.depth_at(50), depth)
        assert entry.messages(50) == messages

    def test_repeat_source_returns_cached_entry(self, small_two_tier):
        cache = FloodDepthCache(small_two_tier)
        assert cache.entry(3, 4) is cache.entry(3, 4)
        assert cache.entry(3, 2) is cache.entry(3, 4)  # shallower slices too
        assert len(cache) == 1

    def test_deeper_request_recomputes(self, small_two_tier):
        cache = FloodDepthCache(small_two_tier)
        shallow = cache.entry(0, 1)
        deep = cache.entry(0, 4)
        if not shallow.exhausted:
            assert deep is not shallow
        assert deep.supports(4)

    def test_lru_eviction(self, small_two_tier):
        cache = FloodDepthCache(small_two_tier, max_entries=2)
        cache.entry(0, 2)
        cache.entry(1, 2)
        cache.entry(2, 2)  # evicts source 0
        assert len(cache) == 2

    def test_validation(self, small_two_tier):
        with pytest.raises(ValueError, match="max_entries"):
            FloodDepthCache(small_two_tier, max_entries=0)
        with pytest.raises(ValueError, match="min_depth"):
            FloodDepthCache(small_two_tier).entry(0, -1)


class TestFloodDepthsBatch:
    def test_matches_per_source_kernel(self, small_two_tier):
        sources = np.array([0, 5, 0, 9, 5])
        depth, messages = flood_depths_batch(small_two_tier, sources, 3)
        assert depth.shape == (5, small_two_tier.n_nodes)
        for i, s in enumerate(sources):
            d, m = flood_depths(small_two_tier, int(s), 3)
            np.testing.assert_array_equal(depth[i], d)
            assert messages[i] == m

    def test_shared_cache_reused_across_calls(self, small_two_tier):
        cache = FloodDepthCache(small_two_tier)
        flood_depths_batch(small_two_tier, np.array([0, 1]), 2, cache=cache)
        n_before = len(cache)
        flood_depths_batch(small_two_tier, np.array([0, 1]), 2, cache=cache)
        assert len(cache) == n_before == 2


class TestReachFractions:
    def test_shape_and_monotonicity(self, small_two_tier):
        out = reach_fractions(small_two_tier, np.array([0, 1, 2]), [1, 2, 3])
        assert out.shape == (3,)
        assert np.all(np.diff(out) >= 0)
        assert np.all((0 <= out) & (out <= 1))

    def test_excludes_source(self, ring_topology):
        out = reach_fractions(ring_topology, np.array([0]), [1])
        assert out[0] == pytest.approx(2 / 12)

    def test_empty_ttls_raise(self, ring_topology):
        with pytest.raises(ValueError, match="TTL"):
            reach_fractions(ring_topology, np.array([0]), [])


class TestLossyFlooding:
    def test_zero_loss_identical(self, small_two_tier):
        from repro.utils.rng import make_rng

        a, _ = flood_depths(small_two_tier, 0, 4)
        b, _ = flood_depths(small_two_tier, 0, 4, p_loss=0.0)
        np.testing.assert_array_equal(a, b)

    def test_loss_reduces_reach(self, small_two_tier):
        from repro.utils.rng import make_rng

        clean, _ = flood_depths(small_two_tier, 0, 4)
        lossy, _ = flood_depths(
            small_two_tier, 0, 4, p_loss=0.5, rng=make_rng(1)
        )
        assert (lossy >= 0).sum() < (clean >= 0).sum()

    def test_lossy_reached_subset_semantics(self, small_two_tier):
        """Everything reached under loss is reached at >= that depth
        without loss (loss can only delay or drop, never shorten)."""
        from repro.utils.rng import make_rng

        clean, _ = flood_depths(small_two_tier, 0, 5)
        lossy, _ = flood_depths(
            small_two_tier, 0, 5, p_loss=0.3, rng=make_rng(2)
        )
        reached = lossy >= 0
        assert (clean[reached] >= 0).all()
        assert (lossy[reached] >= clean[reached]).all()

    def test_messages_counted_even_when_lost(self, small_two_tier):
        from repro.utils.rng import make_rng

        _, clean_msgs = flood_depths(small_two_tier, 0, 2)
        _, lossy_msgs = flood_depths(
            small_two_tier, 0, 2, p_loss=0.9, rng=make_rng(3)
        )
        # Heavy loss shrinks the frontier, so *later* levels send less,
        # but level-1 sends are identical and still counted.
        assert lossy_msgs <= clean_msgs
        assert lossy_msgs > 0

    def test_validation(self, small_two_tier):
        from repro.utils.rng import make_rng

        with pytest.raises(ValueError, match="p_loss"):
            flood_depths(small_two_tier, 0, 2, p_loss=1.0, rng=make_rng(0))
        with pytest.raises(ValueError, match="requires an rng"):
            flood_depths(small_two_tier, 0, 2, p_loss=0.5)


class TestLossyFloodApi:
    """``flood()`` forwards ``p_loss``/``rng`` to the kernel."""

    def test_loss_reduces_reach(self, small_two_tier):
        from repro.utils.rng import make_rng

        clean = flood(small_two_tier, 0, 4)
        lossy = flood(small_two_tier, 0, 4, p_loss=0.5, rng=make_rng(1))
        assert lossy.n_reached < clean.n_reached

    def test_matches_kernel_stream(self, small_two_tier):
        from repro.utils.rng import make_rng

        depth, messages = flood_depths(
            small_two_tier, 0, 4, p_loss=0.3, rng=make_rng(5)
        )
        result = flood(small_two_tier, 0, 4, p_loss=0.3, rng=make_rng(5))
        np.testing.assert_array_equal(result.reached, np.flatnonzero(depth >= 0))
        assert result.messages == messages

    def test_validation_forwarded(self, small_two_tier):
        with pytest.raises(ValueError, match="requires an rng"):
            flood(small_two_tier, 0, 2, p_loss=0.5)


class TestParallelReach:
    def test_worker_count_independent(self, small_two_tier):
        sources = np.array([0, 1, 2, 3, 4])
        serial = reach_fractions(small_two_tier, sources, [1, 2, 3], n_workers=1)
        parallel = reach_fractions(small_two_tier, sources, [1, 2, 3], n_workers=2)
        np.testing.assert_array_equal(serial, parallel)


class TestDepthDtype:
    """int16 depth maps: the sentinel survives and horizons are guarded."""

    def test_depth_maps_use_the_narrow_dtype(self, small_flat):
        from repro.overlay.flooding import DEPTH_DTYPE

        depth, _ = flood_depths(small_flat, 0, 3)
        assert depth.dtype == DEPTH_DTYPE
        cache = FloodDepthCache(small_flat)
        entry = cache.entry(0, 3)
        assert entry.depth.dtype == DEPTH_DTYPE
        # np.where with a typed sentinel must not promote back to int64.
        assert entry.depth_at(2).dtype == DEPTH_DTYPE

    def test_depth_dtype_is_pinned_to_int16(self):
        from repro.overlay.flooding import DEPTH_DTYPE

        # The nightly 1M-node RSS ceilings assume 2-byte depth entries.
        assert DEPTH_DTYPE == np.int16

    def test_horizon_past_dtype_ceiling_raises(self, small_flat):
        with pytest.raises(OverflowError, match="int16"):
            flood_depths(small_flat, 0, 40_000)
        cache = FloodDepthCache(small_flat)
        with pytest.raises(OverflowError, match="max 32767"):
            cache.entry(0, 40_000)

    def test_horizon_at_ceiling_is_accepted(self, small_flat):
        depth, _ = flood_depths(small_flat, 0, 32_767)
        assert int(depth.max()) < 32_767
