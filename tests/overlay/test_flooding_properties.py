"""Property-based flooding tests on hypothesis-generated graphs."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.overlay.flooding import (
    _pull,
    _push,
    flood,
    flood_depths,
    flood_level_counts,
)
from repro.overlay.topology import from_networkx
from repro.utils.rng import make_rng


@st.composite
def random_graphs(draw):
    """Small connected-ish random graphs with optional non-forwarders."""
    n = draw(st.integers(4, 40))
    p = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 10_000))
    g = nx.gnp_random_graph(n, p, seed=seed)
    non_forwarding = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    for v in non_forwarding:
        g.nodes[v]["forwards"] = False
    return from_networkx(g)


class TestFloodingProperties:
    @given(topo=random_graphs(), ttl=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_depths_are_valid_bfs_levels(self, topo, ttl):
        depth, _ = flood_depths(topo, 0, ttl)
        assert depth[0] == 0
        reached = np.flatnonzero(depth > 0)
        for v in reached:
            # Some neighbor sits exactly one level shallower — and if
            # v is deeper than 1, that predecessor must be a forwarder.
            parents = topo.neighbors_of(int(v))
            levels = depth[parents]
            ok = (levels == depth[v] - 1) & (
                (depth[v] == 1) | topo.forwards[parents]
            )
            assert ok.any()

    @given(topo=random_graphs(), ttl=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_reach_monotone_in_ttl(self, topo, ttl):
        a = flood(topo, 0, ttl).n_reached
        b = flood(topo, 0, ttl + 1).n_reached
        assert b >= a

    @given(topo=random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_all_forwarding_matches_networkx(self, topo):
        # Force every node to forward, then depths are plain BFS levels.
        topo.forwards[:] = True
        depth, _ = flood_depths(topo, 0, topo.n_nodes)
        sp = nx.single_source_shortest_path_length(topo.to_networkx(), 0)
        for v in range(topo.n_nodes):
            assert depth[v] == sp.get(v, -1)

    @given(topo=random_graphs(), ttl=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_multisource_is_min_of_singles(self, topo, ttl):
        if topo.n_nodes < 2:
            return
        sources = np.array([0, topo.n_nodes - 1])
        multi, _ = flood_depths(topo, sources, ttl)
        singles = [flood_depths(topo, int(s), ttl)[0] for s in sources]
        for v in range(topo.n_nodes):
            candidates = [d[v] for d in singles if d[v] >= 0]
            expected = min(candidates) if candidates else -1
            assert multi[v] == expected

    @given(topo=random_graphs(), ttl=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_messages_zero_iff_ttl_zero_or_isolated(self, topo, ttl):
        _, messages = flood_depths(topo, 0, ttl)
        if ttl == 0 or topo.degree(0) == 0:
            assert messages == 0
        else:
            assert messages > 0


@st.composite
def csr_graphs(draw):
    """Random graphs with isolated nodes anywhere, edgeless ones included."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    g = nx.gnp_random_graph(n, p, seed=draw(st.integers(0, 10_000)))
    # Isolate some nodes: a trailing run (the last row before it keeps
    # its edges) and single nodes in the middle.
    trailing = draw(st.integers(0, n // 3))
    isolated = set(range(n - trailing, n)) | draw(
        st.sets(st.integers(0, n - 1), max_size=3)
    )
    g.remove_edges_from(list(g.edges(isolated)))
    for v in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        g.nodes[v]["forwards"] = False
    return from_networkx(g)


class TestLaneKernel:
    """``flood_level_counts`` against one ``flood_depths`` per flood."""

    @given(
        topo=csr_graphs(),
        # 1, 9 and 20 floods fill uint8, uint16 and uint32 words; 130 makes
        # three passes, the last of two floods.
        n_floods=st.sampled_from([1, 9, 20, 63, 64, 65, 130]),
        max_depth=st.integers(0, 6),
        seed=st.integers(0, 10_000),
        restrict=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_flood_bincount(
        self, topo, n_floods, max_depth, seed, restrict
    ):
        rng = make_rng(seed)
        # 0-3 sources per flood, repeats and empty sets included.
        source_sets = [
            rng.integers(0, topo.n_nodes, size=int(rng.integers(0, 4)))
            for _ in range(n_floods)
        ]
        among = rng.random(topo.n_nodes) < 0.5 if restrict else None
        before = metrics().snapshot()
        got = flood_level_counts(topo, source_sets, max_depth, among=among)
        delta = metrics().delta_since(before)
        assert got.shape == (n_floods, max_depth + 1)
        assert got.dtype == np.int64
        total_messages = 0
        for i, sources in enumerate(source_sets):
            depth, messages = flood_depths(topo, sources, max_depth)
            total_messages += messages
            kept = depth if among is None else depth[among]
            expected = np.bincount(kept[kept >= 0], minlength=max_depth + 1)
            np.testing.assert_array_equal(got[i], expected)
        assert delta.counter("flood.calls") == n_floods
        assert delta.counter("flood.messages") == total_messages

    @given(topo=csr_graphs(), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_push_equals_pull(self, topo, seed):
        rng = make_rng(seed)
        send = rng.integers(0, 2**64, size=topo.n_nodes, dtype=np.uint64)
        send[rng.random(topo.n_nodes) < 0.5] = 0
        offsets = topo.offsets
        degree = np.diff(offsets)
        rows = np.flatnonzero(degree)
        active = np.flatnonzero(send)
        pulled = _pull(send, topo.neighbors, rows, offsets[rows])
        pushed = _push(send, active, degree[active], offsets, topo.neighbors)
        np.testing.assert_array_equal(pushed, pulled)
        # Spot-check the OR itself on every node.
        for v in range(topo.n_nodes):
            expected = np.bitwise_or.reduce(
                send[topo.neighbors_of(v)], initial=np.uint64(0)
            )
            assert pulled[v] == expected
