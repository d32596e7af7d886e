"""Tests for repro.overlay.topology.shard_bounds (node-range sharding).

The streaming CSR and posting builds cut their id space with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.topology import shard_bounds


class TestShardBounds:
    def test_partitions_every_node_once(self):
        bounds = shard_bounds(1_000, 7)
        assert bounds[0] == 0 and bounds[-1] == 1_000
        assert (np.diff(bounds) > 0).all()

    def test_more_shards_than_nodes_collapses(self):
        bounds = shard_bounds(3, 10)
        assert bounds.size == 4  # 3 effective shards of one node each

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            shard_bounds(0, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, 0)
