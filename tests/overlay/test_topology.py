"""Tests for repro.overlay.topology."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.overlay import topology as topology_module
from repro.overlay.topology import (
    Topology,
    flat_random,
    from_networkx,
    two_tier_gnutella,
)


def assert_symmetric(topo: Topology) -> None:
    edges = set()
    for v in range(topo.n_nodes):
        for w in topo.neighbors_of(v):
            edges.add((v, int(w)))
    for v, w in edges:
        assert (w, v) in edges


class TestCsrInvariants:
    def test_flat_random_valid(self, small_flat):
        assert small_flat.offsets[0] == 0
        assert small_flat.offsets[-1] == small_flat.neighbors.size
        assert_symmetric(small_flat)

    def test_no_self_loops(self, small_flat):
        for v in range(small_flat.n_nodes):
            assert v not in small_flat.neighbors_of(v)

    def test_no_parallel_edges(self, small_flat):
        for v in range(small_flat.n_nodes):
            neigh = small_flat.neighbors_of(v)
            assert np.unique(neigh).size == neigh.size

    def test_degree_vector(self, small_flat):
        degs = small_flat.degree()
        assert degs.sum() == small_flat.neighbors.size
        assert small_flat.degree(0) == degs[0]

    def test_n_edges(self, small_flat):
        assert small_flat.n_edges == small_flat.neighbors.size // 2

    def test_avg_degree_near_target(self):
        topo = flat_random(2_000, 10.0, seed=1)
        assert topo.degree().mean() == pytest.approx(10.0, rel=0.1)


class TestTwoTier:
    def test_prefix_nodes_are_ultrapeers(self, small_two_tier):
        n_up = int(small_two_tier.forwards.sum())
        assert small_two_tier.forwards[:n_up].all()
        assert not small_two_tier.forwards[n_up:].any()

    def test_ultrapeer_fraction(self):
        topo = two_tier_gnutella(1_000, ultrapeer_fraction=0.25, seed=1)
        assert int(topo.forwards.sum()) == 250

    def test_leaves_connect_only_to_ultrapeers(self, small_two_tier):
        n_up = int(small_two_tier.forwards.sum())
        for v in range(n_up, small_two_tier.n_nodes):
            neigh = small_two_tier.neighbors_of(v)
            assert (neigh < n_up).all()

    def test_leaf_connection_count(self):
        # Regression: leaves used to sample ultrapeers *with*
        # replacement, so CSR merging silently shrank some degrees.
        topo = two_tier_gnutella(500, leaf_up_connections=2, seed=3)
        n_up = int(topo.forwards.sum())
        leaf_degrees = topo.degree()[n_up:]
        assert leaf_degrees.min() == leaf_degrees.max() == 2

    def test_leaf_connection_count_near_saturation(self):
        # k close to n_up exercises the permutation fallback path.
        topo = two_tier_gnutella(
            40, ultrapeer_fraction=0.1, leaf_up_connections=3, seed=3
        )
        n_up = int(topo.forwards.sum())
        leaf_degrees = topo.degree()[n_up:]
        assert leaf_degrees.min() == leaf_degrees.max() == 3

    def test_leaf_connections_capped_at_ultrapeer_count(self):
        # More requested connections than ultrapeers: every leaf
        # attaches to all of them, exactly once each.
        topo = two_tier_gnutella(
            30, ultrapeer_fraction=0.1, leaf_up_connections=10, seed=3
        )
        n_up = int(topo.forwards.sum())
        assert (topo.degree()[n_up:] == n_up).all()

    def test_symmetric(self, small_two_tier):
        assert_symmetric(small_two_tier)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError, match="ultrapeer_fraction"):
            two_tier_gnutella(100, ultrapeer_fraction=0.0)

    def test_invalid_leaf_connections(self):
        with pytest.raises(ValueError, match="ultrapeer connection"):
            two_tier_gnutella(100, leaf_up_connections=0)


class TestNetworkxInterop:
    def test_roundtrip(self):
        g = nx.cycle_graph(10)
        topo = from_networkx(g)
        g2 = topo.to_networkx()
        assert nx.is_isomorphic(g, g2)

    def test_forwards_attribute_honored(self):
        g = nx.path_graph(3)
        g.nodes[1]["forwards"] = False
        topo = from_networkx(g)
        np.testing.assert_array_equal(topo.forwards, [True, False, True])

    def test_forwards_exported(self, small_two_tier):
        g = small_two_tier.to_networkx()
        assert g.nodes[0]["forwards"] is True
        assert g.nodes[small_two_tier.n_nodes - 1]["forwards"] is False

    def test_bad_labels_raise(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError, match="labeled"):
            from_networkx(g)


class TestValidation:
    def test_inconsistent_offsets_raise(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Topology(
                np.array([0, 2]), np.array([1]), np.array([True, True])
            )

    def test_bad_forwards_shape(self):
        with pytest.raises(ValueError, match="one entry per node"):
            Topology(np.array([0, 0]), np.empty(0, dtype=np.int64), np.array([], dtype=bool).reshape(0,))
            # single node but zero-length forwards

    def test_flat_random_invalid_degree(self):
        with pytest.raises(ValueError, match="avg_degree"):
            flat_random(10, 0.0)
        with pytest.raises(ValueError, match="avg_degree"):
            flat_random(10, 10.0)

    def test_flat_random_needs_two_nodes(self):
        with pytest.raises(ValueError, match="two nodes"):
            flat_random(1, 0.5)

    def test_deterministic(self):
        a = flat_random(100, 5.0, seed=4)
        b = flat_random(100, 5.0, seed=4)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)


class TestIndexDtypeBounds:
    """The int32 CSR shrink must fail loudly, never wrap silently.

    The real ceiling (2**31 - 1 entries) is unreachable in a test, so
    the dtype is monkeypatched down to int8 and the guard is driven
    over its 127-entry boundary with graphs of a few hundred edges.
    """

    def test_csr_arrays_use_the_index_dtype(self):
        topo = flat_random(64, 4.0, seed=0)
        assert topo.offsets.dtype == topology_module.INDEX_DTYPE
        assert topo.neighbors.dtype == topology_module.INDEX_DTYPE

    def test_index_dtype_is_pinned_to_int32(self):
        # The nightly 1M-node RSS ceilings assume 4-byte CSR entries.
        assert topology_module.INDEX_DTYPE == np.int32

    def test_too_many_entries_raises_with_counts(self, monkeypatch):
        monkeypatch.setattr(topology_module, "INDEX_DTYPE", np.dtype(np.int8))
        # A 40-node cycle: 40 undirected edges = 80 directed entries
        # already exceeds int8's 127 ceiling at ~64 edges; use a denser
        # graph to be safely past it.
        with pytest.raises(OverflowError) as exc:
            flat_random(40, 8.0, seed=1)
        message = str(exc.value)
        assert "40 nodes" in message
        assert "int8" in message
        assert "max 127" in message

    def test_too_many_nodes_raises(self, monkeypatch):
        monkeypatch.setattr(topology_module, "INDEX_DTYPE", np.dtype(np.int8))
        with pytest.raises(OverflowError, match="200 nodes exceed"):
            flat_random(200, 2.0, seed=1)

    def test_boundary_count_still_fits(self, monkeypatch):
        monkeypatch.setattr(topology_module, "INDEX_DTYPE", np.dtype(np.int8))
        # A path graph on 60 nodes: 59 undirected edges = 118 directed
        # entries <= 127, so construction succeeds at the boundary.
        g = nx.path_graph(60)
        topo = from_networkx(g)
        assert topo.n_edges == 59
        assert topo.neighbors.dtype == np.dtype(np.int8)


class TestStreamingCsr:
    """edges_to_csr_stream must equal the batch builder's adjacency."""

    @staticmethod
    def _blocks_from(edges, block=37):
        def make_blocks():
            for start in range(0, edges.shape[0], block):
                yield edges[start : start + block]

        return make_blocks

    @staticmethod
    def _sample_edges(n_nodes, n_edges, seed):
        from repro.utils.rng import make_rng

        rng = make_rng(seed)
        return rng.integers(0, n_nodes, size=(n_edges, 2), dtype=np.int64)

    def test_independent_of_shard_count(self):
        edges = self._sample_edges(500, 2_000, seed=2)
        reference = None
        for n_shards in (1, 2, 5, 64, 1_000):
            offsets, neighbors = topology_module.edges_to_csr_stream(
                500, self._blocks_from(edges), n_shards=n_shards
            )
            if reference is None:
                reference = (offsets, neighbors)
            else:
                assert np.array_equal(offsets, reference[0])
                assert np.array_equal(neighbors, reference[1])

    def test_same_adjacency_sets_as_batch(self):
        edges = self._sample_edges(400, 1_500, seed=3)
        b_off, b_nbr = topology_module._edges_to_csr(400, edges)
        s_off, s_nbr = topology_module.edges_to_csr_stream(
            400, self._blocks_from(edges), n_shards=7
        )
        assert np.array_equal(s_off, b_off)
        assert s_off.dtype == topology_module.INDEX_DTYPE
        assert s_nbr.dtype == topology_module.INDEX_DTYPE
        for v in range(400):
            lo, hi = b_off[v], b_off[v + 1]
            assert np.array_equal(
                np.sort(b_nbr[lo:hi]), s_nbr[s_off[v] : s_off[v + 1]]
            )

    def test_flood_results_bitwise_equal(self):
        from repro.overlay.flooding import flood_depths

        edges = self._sample_edges(300, 1_000, seed=4)
        forwards = np.ones(300, dtype=bool)
        batch = Topology(*topology_module._edges_to_csr(300, edges), forwards)
        stream = Topology(
            *topology_module.edges_to_csr_stream(
                300, self._blocks_from(edges), n_shards=4
            ),
            forwards,
        )
        ref = flood_depths(batch, 0, 6)
        got = flood_depths(stream, 0, 6)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_rejects_bad_block_shape(self):
        def make_blocks():
            yield np.zeros((3, 3), dtype=np.int64)

        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            topology_module.edges_to_csr_stream(10, make_blocks)

    def test_too_many_nodes_raises(self, monkeypatch):
        monkeypatch.setattr(topology_module, "INDEX_DTYPE", np.dtype(np.int8))
        with pytest.raises(OverflowError, match="200 nodes exceed"):
            topology_module.edges_to_csr_stream(200, lambda: iter(()))

    def test_per_shard_guard_names_the_shard(self, monkeypatch):
        monkeypatch.setattr(topology_module, "INDEX_DTYPE", np.dtype(np.int8))
        edges = self._sample_edges(100, 400, seed=5)
        with pytest.raises(OverflowError) as exc:
            topology_module.edges_to_csr_stream(
                100, self._blocks_from(edges), n_shards=1
            )
        message = str(exc.value)
        assert "shard 0" in message
        assert "int8" in message
        assert "more shards" in message

    def test_enough_shards_pass_the_per_shard_guard(self, monkeypatch):
        # With int16 the per-shard guard clears once shards are small
        # enough, but the *total* guard still rejects the global CSR.
        monkeypatch.setattr(topology_module, "INDEX_DTYPE", np.dtype(np.int16))
        edges = self._sample_edges(2_000, 30_000, seed=6)
        with pytest.raises(OverflowError, match="widen INDEX_DTYPE"):
            topology_module.edges_to_csr_stream(
                2_000, self._blocks_from(edges), n_shards=64
            )


class TestStreamingTwoTier:
    def test_deterministic_in_seed_and_block(self):
        a = two_tier_gnutella(800, seed=13, edge_block=97)
        b = two_tier_gnutella(800, seed=13, edge_block=97)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.forwards, b.forwards)

    def test_structure_matches_the_batch_draw(self):
        streamed = two_tier_gnutella(800, seed=13, edge_block=97)
        batch = two_tier_gnutella(800, seed=13)
        # Same tier split and leaf degree law, different edge sample.
        assert np.array_equal(streamed.forwards, batch.forwards)
        n_up = int(streamed.forwards.sum())
        leaf_degrees = streamed.degree()[n_up:]
        assert (leaf_degrees >= 3).all()
        assert_symmetric(streamed)

    def test_leaves_attach_to_distinct_ultrapeers(self):
        topo = two_tier_gnutella(400, seed=7, edge_block=50)
        n_up = int(topo.forwards.sum())
        for leaf in range(n_up, 400):
            neigh = topo.neighbors_of(leaf)
            assert (neigh < n_up).all()
            assert np.unique(neigh).size == neigh.size

    def test_generator_seed_rejected(self):
        from repro.utils.rng import make_rng

        with pytest.raises(TypeError, match="integer seed"):
            two_tier_gnutella(100, seed=make_rng(1), edge_block=10)

    def test_nonpositive_edge_block_rejected(self):
        with pytest.raises(ValueError, match="edge_block"):
            two_tier_gnutella(100, seed=1, edge_block=0)
