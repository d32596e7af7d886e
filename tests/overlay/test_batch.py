"""Tests for repro.overlay.batch (the batched query engine).

The load-bearing property is bitwise equivalence: every row of a
:class:`BatchOutcome` must reproduce the scalar path
(``query_flood`` / ``expanding_ring_search``) exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tokenize import tokenize_name
from repro.overlay.batch import BatchOutcome, BatchQueryEngine
from repro.overlay.expanding_ring import expanding_ring_search
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.topology import flat_random
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def network(small_content):
    topo = flat_random(small_content.n_peers, 6.0, seed=8)
    return UnstructuredNetwork(topo, small_content)


def sample_workload(trace, n, seed=3):
    """``n`` (source, terms) pairs drawn from real instance names.

    Repeats sources and queries (Zipf-style) so the dedup paths are
    exercised, and salts some queries with an unknown term so the
    ``query_key() is None`` fast path appears in every batch.
    """
    rng = make_rng(seed)
    sources = rng.integers(0, trace.n_peers // 4, size=n)
    queries = []
    for _ in range(n):
        inst = int(rng.integers(0, min(40, trace.n_instances)))
        toks = tokenize_name(trace.names.lookup(int(trace.name_ids[inst])))
        k = int(rng.integers(1, min(3, len(toks)) + 1))
        q = list(toks[:k])
        if rng.random() < 0.2:
            q.append("zzzznotaterm")
        queries.append(q)
    return sources, queries


class TestFloodEquivalence:
    def test_matches_scalar_query_flood(self, network, small_trace):
        sources, queries = sample_workload(small_trace, 60)
        out = network.query_batch(sources, queries, ttl=3)
        for i in range(sources.size):
            scalar = network.query_flood(int(sources[i]), queries[i], ttl=3)
            assert bool(out.success[i]) == scalar.succeeded
            assert int(out.n_results[i]) == scalar.n_results
            assert int(out.messages[i]) == scalar.messages
            assert int(out.peers_probed[i]) == scalar.peers_probed

    def test_matches_scalar_expanding_ring(self, network, small_trace):
        sources, queries = sample_workload(small_trace, 40, seed=5)
        out = network.query_batch(
            sources, queries, ttl_schedule=(1, 2, 3, 5), min_results=2
        )
        for i in range(sources.size):
            scalar = expanding_ring_search(
                network,
                int(sources[i]),
                queries[i],
                min_results=2,
                ttl_schedule=(1, 2, 3, 5),
            )
            assert bool(out.success[i]) == scalar.succeeded
            assert int(out.n_results[i]) == scalar.n_results
            assert int(out.messages[i]) == scalar.messages
            assert int(out.peers_probed[i]) == scalar.final.peers_probed

    def test_single_query_batch(self, network, small_trace):
        sources, queries = sample_workload(small_trace, 1)
        out = network.query_batch(sources, queries, ttl=2)
        scalar = network.query_flood(int(sources[0]), queries[0], ttl=2)
        assert out.n_queries == 1
        assert int(out.messages[0]) == scalar.messages


class TestValidation:
    def test_empty_schedule_rejected(self, network):
        with pytest.raises(ValueError, match="ttl_schedule"):
            network.query_batch(np.array([0]), [["x"]], ttl_schedule=())

    def test_decreasing_schedule_rejected(self, network):
        with pytest.raises(ValueError, match="non-decreasing"):
            network.query_batch(np.array([0]), [["x"]], ttl_schedule=(3, 1))

    def test_min_results_must_be_positive(self, network):
        with pytest.raises(ValueError, match="min_results"):
            network.query_batch(np.array([0]), [["x"]], ttl=2, min_results=0)

    def test_length_mismatch_rejected(self, network):
        with pytest.raises(ValueError, match="sources"):
            network.query_batch(np.array([0, 1]), [["x"]], ttl=2)

    def test_size_mismatch_rejected(self, small_content):
        topo = flat_random(small_content.n_peers + 3, 4.0, seed=0)
        with pytest.raises(ValueError, match="peers"):
            BatchQueryEngine(topo, small_content)


class TestBatchOutcome:
    def test_aggregates(self, network, small_trace):
        sources, queries = sample_workload(small_trace, 25)
        out = network.query_batch(sources, queries, ttl=3)
        assert out.n_queries == 25
        assert out.success_rate == float(np.mean(out.success))
        assert out.total_messages == int(out.messages.sum())

    def test_concatenate_roundtrip(self, network, small_trace):
        sources, queries = sample_workload(small_trace, 20)
        whole = network.query_batch(sources, queries, ttl=2)
        parts = [
            network.query_batch(sources[:7], queries[:7], ttl=2),
            network.query_batch(sources[7:], queries[7:], ttl=2),
        ]
        glued = BatchOutcome.concatenate(parts)
        np.testing.assert_array_equal(whole.success, glued.success)
        np.testing.assert_array_equal(whole.messages, glued.messages)

    def test_concatenate_empty(self):
        out = BatchOutcome.concatenate([])
        assert out.n_queries == 0
        # An empty batch has no defined rate: nan, not a silent 0.0
        # that a metrics consumer would read as "every query failed".
        assert np.isnan(out.success_rate)
        assert out.total_messages == 0

    def test_empty_columns_are_fresh_and_dtype_stable(self, network, small_trace):
        empty = BatchOutcome.concatenate([])
        again = BatchOutcome.concatenate([])
        # Fresh arrays per call — no shared module-global aliasing.
        assert empty.n_results is not again.n_results
        assert empty.messages is not again.messages
        sources, queries = sample_workload(small_trace, 5)
        real = network.query_batch(sources, queries, ttl=2)
        for col in ("success", "n_results", "messages", "peers_probed"):
            assert getattr(empty, col).dtype == getattr(real, col).dtype
        # Concatenating an empty outcome with real parts is an
        # identity on both values and dtypes.
        glued = BatchOutcome.concatenate([empty, real])
        for col in ("success", "n_results", "messages", "peers_probed"):
            np.testing.assert_array_equal(
                getattr(glued, col), getattr(real, col)
            )
            assert getattr(glued, col).dtype == getattr(real, col).dtype

    def test_single_query_success_rate_defined(self, network, small_trace):
        sources, queries = sample_workload(small_trace, 1)
        out = network.query_batch(sources, queries, ttl=2)
        assert out.success_rate in (0.0, 1.0)


class TestCaches:
    def test_engine_is_persistent(self, network):
        assert network.batch_engine() is network.batch_engine()

    def test_flood_cache_deduplicates_sources(self, small_content, small_trace):
        topo = flat_random(small_content.n_peers, 6.0, seed=8)
        engine = BatchQueryEngine(topo, small_content)
        sources, queries = sample_workload(small_trace, 40)
        engine.evaluate(sources, queries, ttl_schedule=(3,))
        assert len(engine.flood_cache) == np.unique(sources).size

    def test_repeat_batch_reuses_cache(self, small_content, small_trace):
        topo = flat_random(small_content.n_peers, 6.0, seed=8)
        engine = BatchQueryEngine(topo, small_content)
        sources, queries = sample_workload(small_trace, 20)
        first = engine.evaluate(sources, queries, ttl_schedule=(1, 2, 3))
        second = engine.evaluate(sources, queries, ttl_schedule=(1, 2, 3))
        np.testing.assert_array_equal(first.messages, second.messages)
        np.testing.assert_array_equal(first.n_results, second.n_results)

