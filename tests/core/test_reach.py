"""Tests for repro.core.reach — the calibrated TTL reach profile."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.experiment import Fig8TopologyConfig, build_fig8_topology
from repro.core.reach import PAPER_REACH, ReachConfig, measure_reach


@pytest.fixture(scope="module")
def reach_result():
    cfg = ReachConfig(n_sources=30)
    return measure_reach(cfg)


class TestReachCalibration:
    def test_monotone_in_ttl(self, reach_result):
        assert np.all(np.diff(reach_result.fractions) > 0)

    def test_ttl1_matches_paper(self, reach_result):
        # Paper: 0.05% of peers at TTL 1.
        assert reach_result.fractions[0] == pytest.approx(PAPER_REACH[1], rel=0.5)

    def test_ttl4_matches_paper(self, reach_result):
        # Paper: 26.25% at TTL 4.
        assert reach_result.fractions[3] == pytest.approx(PAPER_REACH[4], rel=0.3)

    def test_ttl5_matches_paper(self, reach_result):
        # Paper: 82.95% at TTL 5.
        assert reach_result.fractions[4] == pytest.approx(PAPER_REACH[5], rel=0.15)

    def test_ttl3_over_a_thousand_nodes(self, reach_result):
        # Paper §V: "the query reached over a thousand nodes" at TTL 3.
        assert reach_result.nodes_reached()[2] > 1_000

    def test_rows_shape(self, reach_result):
        rows = reach_result.as_rows()
        assert len(rows) == 5
        ttl, frac, nodes = rows[0]
        assert ttl == 1 and nodes == pytest.approx(frac * reach_result.n_nodes)


class TestReachMechanics:
    def test_smaller_topology_runs(self):
        cfg = ReachConfig(
            topology=Fig8TopologyConfig(n_nodes=2_000), ttls=(1, 2), n_sources=10
        )
        res = measure_reach(cfg)
        assert res.fractions.shape == (2,)

    def test_topology_override(self, small_two_tier):
        res = measure_reach(
            ReachConfig(ttls=(1, 2, 3), n_sources=10), topology=small_two_tier
        )
        assert res.n_nodes == small_two_tier.n_nodes

    def test_default_fractions_pinned(self):
        """``measure_reach()``'s fractions, bit for bit."""
        h = hashlib.sha256()
        for value in measure_reach().fractions:
            h.update(float(value).hex().encode())
        assert h.hexdigest() == (
            "afc117bd6e2ab500053066819cfe40fe1d57ddcbe9618d1f747c57a000d579a4"
        )

    def test_deterministic(self):
        cfg = ReachConfig(
            topology=Fig8TopologyConfig(n_nodes=2_000), ttls=(1, 2), n_sources=5
        )
        a = measure_reach(cfg)
        b = measure_reach(cfg)
        np.testing.assert_array_equal(a.fractions, b.fractions)
