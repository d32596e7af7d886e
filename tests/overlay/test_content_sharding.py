"""Tests for posting providers, the batch kernel and streaming builds.

The load-bearing property is bitwise equivalence: every provider
(dense, term-sharded) and every builder (in-memory, streaming at any
block/shard count) must produce exactly the arrays the baseline path
produces, and the batch kernel must reproduce the scalar
``intersect_postings`` row by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tokenize import tokenize_name
from repro.obs import metrics
from repro.overlay import content as content_module
from repro.overlay.content import (
    SharedContentIndex,
    intersect_postings,
    intersect_postings_batch,
    partition_postings,
)
from repro.overlay.topology import INDEX_DTYPE
from repro.utils.rng import make_rng


def sample_keys(content, trace, n=60, seed=7):
    """Distinct in-range canonical keys drawn from ``trace``'s instance names."""
    rng = make_rng(seed)
    keys = []
    for _ in range(n):
        inst = int(rng.integers(0, trace.n_instances))
        toks = tokenize_name(trace.names.lookup(int(trace.name_ids[inst])))
        k = int(rng.integers(1, min(3, len(toks)) + 1))
        key = content.query_key(list(toks[:k]))
        if key is not None:
            keys.append(key)
    return keys


@pytest.fixture(scope="module")
def fresh_content(small_trace):
    """A module-private index: nothing here touches the shared fixture."""
    return SharedContentIndex(small_trace)


class TestPartitionPostings:
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_shard_layout(self, fresh_content, n_shards):
        shard_set = partition_postings(fresh_content, n_shards)
        assert shard_set.n_shards == n_shards
        assert shard_set.n_terms == fresh_content.term_index.n_terms
        assert shard_set.n_instances == fresh_content.n_instances
        total = 0
        for shard in shard_set.shards:
            assert shard.offsets.dtype == INDEX_DTYPE
            assert int(shard.offsets[0]) == 0
            assert shard.offsets.size == shard.hi - shard.lo + 1
            total += int(shard.offsets[-1])
        dense = fresh_content.dense_postings()
        assert total == int(dense.posting_offsets[-1])

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_provider_parity_with_dense(self, fresh_content, n_shards):
        dense = fresh_content.dense_postings()
        shard_set = partition_postings(fresh_content, n_shards)
        rng = make_rng(3)
        term_ids = rng.integers(0, dense.n_terms, size=200)
        np.testing.assert_array_equal(
            shard_set.posting_lengths(term_ids), dense.posting_lengths(term_ids)
        )
        s_off, s_ins = shard_set.gather_postings(term_ids)
        d_off, d_ins = dense.gather_postings(term_ids)
        np.testing.assert_array_equal(s_off, d_off)
        np.testing.assert_array_equal(s_ins, d_ins)
        assert s_ins.dtype == d_ins.dtype

    def test_invalid_n_shards(self, fresh_content):
        with pytest.raises(ValueError, match="n_shards"):
            partition_postings(fresh_content, 0)

    def test_overflow_guard_names_shard(self, fresh_content, monkeypatch):
        monkeypatch.setattr(content_module, "INDEX_DTYPE", np.dtype(np.int8))
        with pytest.raises(OverflowError, match="posting shard"):
            partition_postings(fresh_content.dense_postings(), 2)


class TestBatchKernel:
    @pytest.mark.parametrize("n_shards", [None, 1, 2, 7])
    def test_rows_match_scalar(self, fresh_content, n_shards, small_trace):
        provider = (
            fresh_content.dense_postings()
            if n_shards is None
            else partition_postings(fresh_content, n_shards)
        )
        keys = sample_keys(fresh_content, small_trace)
        rows = intersect_postings_batch(provider, keys)
        dense = fresh_content.dense_postings()
        assert len(rows) == len(keys)
        for key, row in zip(keys, rows):
            expected = intersect_postings(
                dense.posting_offsets, dense.posting_instances, key
            )
            np.testing.assert_array_equal(row, expected)
            assert row.dtype == expected.dtype

    def test_empty_batch(self, fresh_content):
        assert intersect_postings_batch(fresh_content.dense_postings(), []) == []

    def test_empty_key_rejected(self, fresh_content):
        with pytest.raises(ValueError, match="term"):
            intersect_postings_batch(fresh_content.dense_postings(), [()])


class TestProviderPlumbing:
    def test_prefetch_warms_cache(self, small_trace):
        content = SharedContentIndex(small_trace)
        keys = sample_keys(content, small_trace, n=10)
        content.prefetch_keys(keys)
        assert all(k in content._match_cache for k in keys)

    def test_prefetch_keeps_the_rounds_hits(self, small_trace, monkeypatch):
        # The engine reads every row of a round right after prefetching
        # it, so the round's misses must not evict the round's hits.
        monkeypatch.setattr(content_module, "_MATCH_CACHE_MAX", 4)
        content = SharedContentIndex(small_trace)
        keys = list(dict.fromkeys(sample_keys(content, small_trace, n=30)))[:5]
        content.prefetch_keys(keys[:4])
        assert list(content._match_cache) == keys[:4]
        oldest, new = keys[0], keys[4]
        content.prefetch_keys([oldest, new])
        assert oldest in content._match_cache
        hits = metrics().counter("match.cache.hits")
        content.match_key(oldest)
        assert metrics().counter("match.cache.hits") == hits + 1


class TestStreamingBuild:
    @pytest.mark.parametrize("block", [3, 50, 10_000])
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_stream_matches_batch_build(self, small_trace, block, n_shards):
        baseline = SharedContentIndex(small_trace)
        streamed = SharedContentIndex(
            small_trace, stream_block=block, n_shards=n_shards
        )
        np.testing.assert_array_equal(
            streamed._posting_offsets, baseline._posting_offsets
        )
        np.testing.assert_array_equal(
            streamed._posting_instances, baseline._posting_instances
        )
        assert streamed._posting_offsets.dtype == baseline._posting_offsets.dtype
        assert streamed._posting_instances.dtype == baseline._posting_instances.dtype

    def test_posting_arrays_narrowed(self, fresh_content):
        assert fresh_content._posting_offsets.dtype == INDEX_DTYPE
        assert fresh_content._posting_instances.dtype == INDEX_DTYPE
        assert fresh_content.instance_peer.dtype == INDEX_DTYPE

    def test_invalid_stream_params(self, small_trace):
        with pytest.raises(ValueError, match="stream_block"):
            SharedContentIndex(small_trace, stream_block=0)
        with pytest.raises(ValueError, match="n_shards"):
            SharedContentIndex(small_trace, stream_block=10, n_shards=0)

    def test_streaming_overflow_guard(self, small_trace, monkeypatch):
        # ~6k instances cannot be indexed by int8 ids: the guard must
        # fire before any posting chunk silently wraps.
        monkeypatch.setattr(content_module, "INDEX_DTYPE", np.dtype(np.int8))
        with pytest.raises(OverflowError, match="widen INDEX_DTYPE"):
            SharedContentIndex(small_trace, stream_block=50)

    def test_batch_overflow_guard(self, small_trace, monkeypatch):
        monkeypatch.setattr(content_module, "INDEX_DTYPE", np.dtype(np.int8))
        with pytest.raises(OverflowError, match="widen INDEX_DTYPE"):
            SharedContentIndex(small_trace)
