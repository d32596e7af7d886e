"""Tests for repro.core.flood_sim — the Fig. 8 experiment."""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.core.experiment import Fig8TopologyConfig
from repro.core.flood_sim import (
    FloodSimConfig,
    PlacementSpec,
    run_fig8,
    run_flood_success,
    zipf_replica_counts,
)
from repro.core.flood_sim import _success_profile
from repro.obs import metrics
from repro.overlay.topology import from_networkx


def _curves_digest(result) -> str:
    """SHA-256 over every curve: label, TTLs, success values as ``float.hex``."""
    h = hashlib.sha256()
    for curve in result.curves:
        h.update(curve.label.encode())
        h.update(repr(curve.ttls).encode())
        for value in curve.success:
            h.update(float(value).hex().encode())
    return h.hexdigest()


class TestZipfReplicaCounts:
    def test_mean_calibrated(self):
        counts = zipf_replica_counts(5_000, 1.0, 5.0)
        assert counts.mean() == pytest.approx(5.0, abs=0.05)

    def test_floor_of_one(self):
        counts = zipf_replica_counts(1_000, 1.2, 3.0)
        assert counts.min() == 1

    def test_head_heavier_than_tail(self):
        counts = zipf_replica_counts(1_000, 1.0, 5.0)
        assert counts[0] > 50 * counts[-1]

    def test_median_is_one(self):
        # The paper's point: mean 5 but the median object has 1 replica.
        counts = zipf_replica_counts(10_000, 1.0, 5.0)
        assert np.median(counts) == 1.0


class TestSuccessProfileExact:
    def test_on_cycle(self, ring_topology):
        """Hand-checkable: replica at node 0 of a 12-cycle."""
        profile = _success_profile(ring_topology, np.array([0]), 3)
        # Eligible sources: the 11 non-replica nodes.  Nodes within
        # distance t of node 0: 2 per side.
        np.testing.assert_allclose(profile, [2 / 11, 4 / 11, 6 / 11])

    def test_two_replicas_union(self, ring_topology):
        profile = _success_profile(ring_topology, np.array([0, 6]), 2)
        # Distance <= 2 of {0, 6} covers nodes 1,2,4,5,7,8,10,11 = 8 of 10.
        assert profile[1] == pytest.approx(8 / 10)

    def test_all_nodes_replicas_raises(self, ring_topology):
        with pytest.raises(ValueError, match="sources"):
            _success_profile(ring_topology, np.arange(12), 2)

    def test_no_objects_raises(self, ring_topology):
        with pytest.raises(ValueError, match="n_eval_objects"):
            run_flood_success(ring_topology, PlacementSpec(), n_eval_objects=0)


@pytest.fixture(scope="module")
def fig8_result():
    return run_fig8(FloodSimConfig(n_eval_objects=40))


class TestFig8Claims:
    def test_all_curves_present(self, fig8_result):
        labels = {c.label for c in fig8_result.curves}
        assert "Zipf" in labels
        for r in (1, 4, 9, 19, 39):
            assert f"Uniform ({r} replicas)" in labels

    def test_curves_monotone_in_ttl(self, fig8_result):
        for c in fig8_result.curves:
            assert np.all(np.diff(c.success) >= -1e-12)

    def test_uniform_ordered_by_replicas(self, fig8_result):
        at_ttl3 = [
            fig8_result.curve(f"Uniform ({r} replicas)").success[2]
            for r in (1, 4, 9, 19, 39)
        ]
        assert at_ttl3 == sorted(at_ttl3)

    def test_zipf_tracks_lowest_uniform(self, fig8_result):
        """The paper's headline: Zipf behaves like the lowest replication."""
        zipf = fig8_result.curve("Zipf").success
        low = fig8_result.curve("Uniform (1 replicas)").success
        mid = fig8_result.curve("Uniform (9 replicas)").success
        # At TTL 3-4 the Zipf curve stays near the 1-replica curve and
        # well under the 9-replica curve.
        assert zipf[2] < mid[2] * 0.6
        assert zipf[2] < 4 * max(low[2], 1e-6)

    def test_zipf_ttl3_success_near_5pct(self, fig8_result):
        # Paper §V: "a success rate of about 5%" at TTL 3.
        assert 0.02 <= fig8_result.curve("Zipf").success[2] <= 0.10

    def test_uniform_0p1pct_ttl3_near_62pct(self, fig8_result):
        # 39 replicas / 40,000 nodes ~ 0.1%; paper predicts ~62% at TTL 3.
        s = fig8_result.curve("Uniform (39 replicas)").success[2]
        assert 0.45 <= s <= 0.8

    def test_missing_curve_raises(self, fig8_result):
        with pytest.raises(KeyError):
            fig8_result.curve("nope")

    def test_curves_pinned(self, fig8_result):
        """Every success value of the 40k-node run, bit for bit."""
        assert _curves_digest(fig8_result) == (
            "50c73982bd2506e6b06bc17cd3ea1a591b5d0375bc8fc625bc53b4d0d9aaccd2"
        )


class TestRuntimeDeterminism:
    """Worker count and cache must never change experiment values."""

    SMALL = dict(
        topology=Fig8TopologyConfig(n_nodes=3_000),
        ttls=(1, 2, 3),
        n_eval_objects=12,
        uniform_replicas=(1, 4),
    )

    def test_run_fig8_worker_count_independent(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        serial = run_fig8(FloodSimConfig(**self.SMALL, n_workers=1))
        parallel = run_fig8(FloodSimConfig(**self.SMALL, n_workers=2))
        assert [c.label for c in serial.curves] == [c.label for c in parallel.curves]
        for a, b in zip(serial.curves, parallel.curves):
            np.testing.assert_array_equal(a.success, b.success)

    def test_run_fig8_uses_one_pool(self, monkeypatch):
        """All curves fan out through one ``pmap``, not one per curve."""
        monkeypatch.setenv("REPRO_CACHE", "off")
        before = metrics().snapshot()
        run_fig8(FloodSimConfig(**self.SMALL, n_workers=2))
        assert metrics().delta_since(before).counter("pmap.maps") == 1

    def test_run_fig8_cache_hit_equal(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_fig8(FloodSimConfig(**self.SMALL))
        second = run_fig8(FloodSimConfig(**self.SMALL))
        assert second is not first
        for a, b in zip(first.curves, second.curves):
            np.testing.assert_array_equal(a.success, b.success)

    def test_cache_key_ignores_n_workers(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_fig8(FloodSimConfig(**self.SMALL, n_workers=1))
        from repro.runtime.cache import cache_info

        before = cache_info().n_entries
        run_fig8(FloodSimConfig(**self.SMALL, n_workers=2))
        assert cache_info().n_entries == before

    def test_flood_counters_pinned(self, monkeypatch):
        """One ``flood.calls`` per evaluated object; messages unchanged."""
        monkeypatch.setenv("REPRO_CACHE", "off")
        before = metrics().snapshot()
        run_fig8(FloodSimConfig(**self.SMALL))
        delta = metrics().delta_since(before)
        assert delta.counter("flood.calls") == 36
        assert delta.counter("flood.messages") == 52_184

    def test_run_flood_success_worker_count_independent(self):
        from repro.core.experiment import build_fig8_topology

        topo = build_fig8_topology(Fig8TopologyConfig(n_nodes=3_000))
        spec = PlacementSpec()
        serial = run_flood_success(
            topo, spec, ttls=(1, 2, 3), n_eval_objects=20, seed=4, n_workers=1
        )
        parallel = run_flood_success(
            topo, spec, ttls=(1, 2, 3), n_eval_objects=20, seed=4, n_workers=2
        )
        np.testing.assert_array_equal(serial.success, parallel.success)


class TestQueryModels:
    @pytest.fixture(scope="class")
    def topo(self):
        from repro.core.experiment import build_fig8_topology

        return build_fig8_topology(Fig8TopologyConfig(n_nodes=8_000))

    def test_popularity_queries_beat_uniform(self, topo):
        base = run_flood_success(
            topo, PlacementSpec(query_model="uniform"), n_eval_objects=60, seed=1
        )
        pop = run_flood_success(
            topo, PlacementSpec(query_model="popularity"), n_eval_objects=60, seed=1
        )
        assert pop.success[3] > base.success[3]

    def test_mismatch_kills_popularity_advantage(self, topo):
        """The paper's core position, as an ablation: Zipf *query*
        popularity doesn't help when it's mismatched with placement."""
        pop = run_flood_success(
            topo, PlacementSpec(query_model="popularity"), n_eval_objects=60, seed=1
        )
        mis = run_flood_success(
            topo, PlacementSpec(query_model="mismatch"), n_eval_objects=60, seed=1
        )
        assert mis.success[3] < pop.success[3]

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="placement kind"):
            PlacementSpec(kind="nope")
        with pytest.raises(ValueError, match="query model"):
            PlacementSpec(query_model="nope")
        with pytest.raises(ValueError, match="replica"):
            PlacementSpec(kind="uniform", n_replicas=0)
        with pytest.raises(ValueError, match="universe"):
            PlacementSpec(kind="zipf", universe=1)

    def test_labels(self):
        assert PlacementSpec(kind="uniform", n_replicas=4).label() == "Uniform (4 replicas)"
        assert PlacementSpec().label() == "Zipf"
        assert "mismatch" in PlacementSpec(query_model="mismatch").label()


class TestShardedFig8:
    """The Fig. 8 cache key across the removal of ``n_shards``.

    ``config_digest`` skips excluded fields, so dropping the field that
    every run excluded must leave every cached Fig. 8 result addressable.
    """

    SMALL = dict(
        topology=Fig8TopologyConfig(n_nodes=3_000),
        ttls=(1, 2, 3),
        n_eval_objects=12,
        uniform_replicas=(1, 4),
    )

    def test_cache_key_ignores_n_shards(self):
        from repro.runtime.cache import config_digest

        # Computed with exclude=("n_workers", "n_shards") while
        # FloodSimConfig still had an n_shards field.
        digest = config_digest(FloodSimConfig(**self.SMALL), exclude=("n_workers",))
        assert digest == "aae5c7dcc46b6e6ad33ec4133024bf84"

    def test_streamed_topology_config_changes_digest(self):
        from repro.runtime.cache import config_digest

        a = config_digest(Fig8TopologyConfig(n_nodes=3_000))
        b = config_digest(Fig8TopologyConfig(n_nodes=3_000, edge_block=4_096))
        assert a != b
