"""Sanitizer-on parity matrix.

Consumers never write attached views, and kernels keep scratch
discipline; the runtime confirms both dynamically: with
``REPRO_SANITIZE=shm`` every attached array is frozen and released
scratch is poisoned, so any latent write race faults instead of
corrupting.  These tests run the flood and content paths
across shard-count x worker-count shapes with the sanitizer on and
assert zero faults plus outputs bitwise-identical to the plain serial
reference computed with the sanitizer off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.batch import BatchQueryEngine
from repro.overlay.flooding import flood_depths
from repro.overlay.topology import two_tier_gnutella
from repro.runtime.sanitize import SANITIZE_ENV, sanitize_faults
from repro.runtime.shards import ShardedFloodRunner
from repro.obs import metrics

SHARD_COUNTS = (1, 2, 7)
WORKER_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def topo():
    return two_tier_gnutella(2_000, seed=9)


@pytest.fixture(scope="module")
def flood_reference(topo):
    # Plain serial reference, sanitizer off: the ground truth the
    # sanitized matrix must reproduce bit for bit.
    sources = np.array([0, 17, 1_999])
    return sources, flood_depths(topo, sources, 6)


class TestFloodMatrix:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_sanitized_flood_parity(
        self, topo, flood_reference, monkeypatch, n_shards, n_workers
    ):
        sources, (ref_depth, ref_messages) = flood_reference
        monkeypatch.setenv(SANITIZE_ENV, "shm")
        faults_before = sanitize_faults()
        with ShardedFloodRunner(
            topo, n_shards=n_shards, n_workers=n_workers
        ) as runner:
            depth, messages = runner.flood_depths(sources, 6)
        assert np.array_equal(depth, ref_depth)
        assert depth.dtype == ref_depth.dtype
        assert messages == ref_messages
        assert sanitize_faults() == faults_before

    def test_sanitizer_actually_engages(self, topo, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "shm")
        before = metrics().snapshot().counters.get("sanitize.scratch_allocs", 0)
        flood_depths(topo, np.array([0]), 4)
        after = metrics().snapshot().counters.get("sanitize.scratch_allocs", 0)
        assert after > before, "flood kernel did not route scratch through the sanitizer"


class TestContentMatrix:
    @pytest.fixture(scope="class")
    def content_setup(self, small_content):
        content_topo = two_tier_gnutella(small_content.n_peers, seed=4)
        queries = [["love"], ["the", "you"], ["you"], ["love", "the"]]
        sources = np.array([0, 7, 60, 100])
        plain = BatchQueryEngine(content_topo, small_content)
        ref = plain.evaluate(sources, queries, ttl_schedule=(1, 3))
        return content_topo, queries, sources, ref

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_sanitized_content_parity(
        self, small_content, content_setup, monkeypatch, n_shards, n_workers
    ):
        content_topo, queries, sources, ref = content_setup
        monkeypatch.setenv(SANITIZE_ENV, "shm")
        faults_before = sanitize_faults()
        with ShardedFloodRunner(content_topo, n_shards=n_shards) as runner:
            engine = BatchQueryEngine(
                content_topo, small_content, depth_provider=runner
            )
            got = engine.evaluate(
                sources, queries, ttl_schedule=(1, 3), n_workers=n_workers
            )
        np.testing.assert_array_equal(got.success, ref.success)
        np.testing.assert_array_equal(got.n_results, ref.n_results)
        np.testing.assert_array_equal(got.messages, ref.messages)
        np.testing.assert_array_equal(got.peers_probed, ref.peers_probed)
        assert sanitize_faults() == faults_before
