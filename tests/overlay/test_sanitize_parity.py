"""Sanitizer-on parity matrix.

Consumers never write attached views, and kernels keep scratch
discipline; the runtime confirms both dynamically: with
``REPRO_SANITIZE=shm`` every attached array is frozen and released
scratch is poisoned, so any latent write race faults instead of
corrupting.  These tests run the flood paths across ``pmap`` fan-out
shapes (flood count x worker count) and the content path across
posting shard counts with the sanitizer on, and assert zero faults
plus outputs bitwise-identical to the plain serial reference computed
with the sanitizer off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flood_sim import PlacementSpec, run_flood_success
from repro.overlay.batch import BatchQueryEngine
from repro.overlay.content import (
    SharedContentIndex,
    intersect_postings_batch,
    partition_postings,
)
from repro.overlay.flooding import flood_depths, reach_fractions
from repro.overlay.topology import two_tier_gnutella
from repro.runtime.sanitize import SANITIZE_ENV, sanitize_faults
from repro.obs import metrics

#: Fan-out sizes: one flood stays in process, two leave workers idle,
#: seven spread unevenly over the pool.
FLOOD_COUNTS = (1, 2, 7)
SHARD_COUNTS = (1, 2, 7)
WORKER_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def topo():
    return two_tier_gnutella(2_000, seed=9)


def _floods(topo, n_floods: int, n_workers: int):
    """Reach rows and a success curve over ``n_floods`` floods each."""
    sources = np.array([0, 17, 1_999, 5, 600, 1_200, 42])[:n_floods]
    reach = reach_fractions(topo, sources, [1, 3, 6], n_workers=n_workers)
    curve = run_flood_success(
        topo,
        PlacementSpec(kind="uniform", n_replicas=3),
        ttls=(1, 2, 4),
        n_eval_objects=n_floods,
        seed=5,
        n_workers=n_workers,
    )
    return reach, curve.success


class TestFloodMatrix:
    @pytest.mark.parametrize("n_floods", FLOOD_COUNTS)
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_sanitized_flood_parity(self, topo, monkeypatch, n_floods, n_workers):
        ref_reach, ref_success = _floods(topo, n_floods, 1)
        monkeypatch.setenv(SANITIZE_ENV, "shm")
        faults_before = sanitize_faults()
        reach, success = _floods(topo, n_floods, n_workers)
        np.testing.assert_array_equal(reach, ref_reach)
        np.testing.assert_array_equal(success, ref_success)
        assert sanitize_faults() == faults_before

    def test_sanitizer_actually_engages(self, topo, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "shm")
        before = metrics().snapshot().counters.get("sanitize.scratch_allocs", 0)
        flood_depths(topo, np.array([0]), 4)
        after = metrics().snapshot().counters.get("sanitize.scratch_allocs", 0)
        assert after > before, "flood kernel did not route scratch through the sanitizer"


class TestContentMatrix:
    @pytest.fixture(scope="class")
    def content_setup(self, small_content, small_workload):
        from repro.serve.load import build_query_pool

        content_topo = two_tier_gnutella(small_content.n_peers, seed=4)
        queries = build_query_pool(small_workload, 32)
        sources = np.arange(0, 3 * len(queries), 3)
        plain = BatchQueryEngine(content_topo, small_content)
        ref = plain.evaluate(sources, queries, ttl_schedule=(1, 3))
        keys = [k for k in map(small_content.query_key, queries) if k is not None]
        assert any(len(k) > 1 for k in keys)
        rows = intersect_postings_batch(small_content.dense_postings(), keys)
        return content_topo, queries, sources, ref, keys, rows

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sanitized_content_parity(
        self, small_trace, small_content, content_setup, monkeypatch, n_shards
    ):
        content_topo, queries, sources, ref, keys, rows = content_setup
        monkeypatch.setenv(SANITIZE_ENV, "shm")
        faults_before = sanitize_faults()
        # A cold index, so the engine's misses run the batch kernel
        # under the sanitizer.
        engine = BatchQueryEngine(content_topo, SharedContentIndex(small_trace))
        got = engine.evaluate(sources, queries, ttl_schedule=(1, 3))
        np.testing.assert_array_equal(got.success, ref.success)
        np.testing.assert_array_equal(got.n_results, ref.n_results)
        np.testing.assert_array_equal(got.messages, ref.messages)
        np.testing.assert_array_equal(got.peers_probed, ref.peers_probed)
        shard_rows = intersect_postings_batch(
            partition_postings(small_content, n_shards), keys
        )
        for row, want in zip(shard_rows, rows):
            np.testing.assert_array_equal(row, want)
            assert row.dtype == want.dtype
        assert sanitize_faults() == faults_before
