"""SCALE — Million-peer content search smoke (nightly).

The per-PR benches answer "did the content kernels regress" at the
default bundle scale; this one answers "does the million-peer content
path still work, and at what cost".  It exercises every layer the
content-scale work added: streaming trace generation (``peer_block``),
the streaming sharded index builder (``stream_block``/``n_shards``),
the zero-copy mmap artifact cache (second index build must be
sub-second), and the batch intersection kernel, recording wall time,
``peak_rss_bytes`` and distinct-queries/sec into ``BENCH_perf.json``
via the shared conftest hook.

Peak RSS is checked against a per-peer byte figure derived from the
posting-array dtypes (rescaled from the calibration library size to
this run's) times a slack factor for the tokenizer, the name interner
and the interpreter; a failure means the measured footprint regressed
past what those dtypes promise.

Gated by ``REPRO_SCALE_BENCH=1`` (set by the nightly workflow): a
million-peer run has no place in the per-PR test path.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import peak_rss_bytes

from repro.core.experiment import build_content_index, build_trace_bundle
from repro.overlay.content import intersect_postings, intersect_postings_batch
from repro.tracegen.gnutella_trace import GnutellaTraceConfig

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_BENCH") != "1",
    reason="million-peer smoke runs nightly; set REPRO_SCALE_BENCH=1 to run",
)

N_PEERS = 1_000_000
#: Calibrated library mean is 120 files/peer; at a million peers that
#: is ~120M instances — beyond a nightly smoke's time budget.  12
#: files/peer keeps ~11.5M instances, enough that posting-list element
#: work (not call overhead) dominates the kernels under test.
MEAN_LIBRARY_SIZE = 12.0
#: Library size POSTINGS_BYTES_PER_PEER is calibrated at (the default
#: trace config).
BUDGET_LIBRARY_SIZE = 120.0
#: Posting bytes per peer at BUDGET_LIBRARY_SIZE files, from the int32
#: (4-byte) arrays: instance-to-peer map 120 x 4 = 480, posting
#: instances 420 x 4 = 1,680 (~3.5 postings per instance), posting
#: offsets 40 x 4 = 160 (~40 distinct terms per peer).
POSTINGS_BYTES_PER_PEER = 2320.0
#: Streaming block sizes: peers per RNG block / instances per
#: tokenization block.
PEER_BLOCK = 50_000
STREAM_BLOCK = 200_000
N_SHARDS = 8
#: Measured RSS may exceed the posting-array figure by this factor —
#: the tokenizer, the observed-name interner, the query workload and
#: the interpreter are not in it.
RSS_SLACK = 3.0
#: Interpreter + numpy + interned-string baseline not attributable to
#: per-peer arrays.
RSS_BASELINE_BYTES = 4 * 1024 * 1024 * 1024

SCALE_TRACE = GnutellaTraceConfig(
    n_peers=N_PEERS, mean_library_size=MEAN_LIBRARY_SIZE, peer_block=PEER_BLOCK
)


def _budgeted_rss_limit() -> int:
    """Byte ceiling from the per-peer figure (4,990,967,296 B at 1M peers).

    Every posting array is per-instance or per-term with
    instance-proportional entries, so the figure scales linearly with
    the mean library size and is rescaled from the calibration
    library to this run's.
    """
    scaled = POSTINGS_BYTES_PER_PEER * (MEAN_LIBRARY_SIZE / BUDGET_LIBRARY_SIZE)
    return int(RSS_BASELINE_BYTES + RSS_SLACK * scaled * N_PEERS)


@pytest.fixture(scope="module")
def scale_bundle():
    return build_trace_bundle(trace_config=SCALE_TRACE)


@pytest.fixture(scope="module")
def scale_content(scale_bundle):
    return build_content_index(
        scale_bundle.trace, stream_block=STREAM_BLOCK, n_shards=N_SHARDS
    )


def test_scale_streaming_content_build(benchmark):
    """1M-peer streamed trace + index build: wall time + RSS gate."""

    def run():
        bundle = build_trace_bundle(trace_config=SCALE_TRACE)
        content = build_content_index(
            bundle.trace, stream_block=STREAM_BLOCK, n_shards=N_SHARDS
        )
        return bundle, content

    bundle, content = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bundle.trace.n_peers == N_PEERS
    assert content.n_instances == bundle.trace.n_instances
    rss = peak_rss_bytes()
    limit = _budgeted_rss_limit()
    benchmark.extra_info["n_peers"] = N_PEERS
    benchmark.extra_info["n_instances"] = int(content.n_instances)
    benchmark.extra_info["n_terms"] = int(content.term_index.n_terms)
    benchmark.extra_info["peak_rss_bytes"] = rss
    benchmark.extra_info["peak_rss_limit_bytes"] = limit
    assert rss <= limit, (
        f"peak RSS {rss / 2**30:.2f} GiB exceeds the ceiling "
        f"{limit / 2**30:.2f} GiB (bytes per peer x {RSS_SLACK} slack)"
    )


def test_scale_content_mmap_reload(benchmark, scale_bundle, scale_content):
    """Second index build is a zero-copy cache hit: sub-second, memmap."""

    def reload():
        return build_content_index(
            scale_bundle.trace, stream_block=STREAM_BLOCK, n_shards=N_SHARDS
        )

    start = time.perf_counter()
    cached = benchmark.pedantic(reload, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    dense = cached.dense_postings()
    assert isinstance(dense.posting_instances, np.memmap)
    assert cached.n_instances == scale_content.n_instances
    benchmark.extra_info["reload_seconds"] = elapsed
    assert elapsed < 1.0, f"mmap cache reload took {elapsed:.2f}s (budget: 1s)"


def test_scale_distinct_miss_intersection(benchmark, scale_bundle, scale_content):
    """1k-query Zipf replay, cold cache: batch kernel vs per-key loop.

    The acceptance bar for the batch intersection kernel: on the
    distinct cache-miss keys of a 1,000-query Zipf replay it must beat
    looping the ``np.intersect1d``-based ``intersect_postings`` per
    key by at least 5x.  This is the scale where the bar is meaningful
    — posting lists hold millions of entries, so element work (the
    thing the kernel restructures) dominates per-call overhead.
    """
    workload = scale_bundle.workload
    content = scale_content
    # Replay the first 1,000 workload queries and keep what a cold
    # match cache would actually compute: the distinct canonical keys.
    seen = set()
    keys = []
    off, tid = workload.term_offsets, workload.term_ids
    for q in range(1_000):
        words = [workload.vocab_words[int(r)] for r in tid[off[q] : off[q + 1]]]
        key = content.query_key(words)
        if key is not None and key not in seen:
            seen.add(key)
            keys.append(key)
    dense = content.dense_postings()

    expected = [
        intersect_postings(dense.posting_offsets, dense.posting_instances, key)
        for key in keys
    ]
    rows = benchmark.pedantic(
        intersect_postings_batch, (dense, keys), rounds=3, iterations=1
    )

    # Bitwise parity with the scalar path first.
    assert len(rows) == len(keys)
    for row, exp in zip(rows, expected):
        np.testing.assert_array_equal(row, exp)
        assert row.dtype == exp.dtype

    # The speed bar is measured interleaved (both paths alternate in
    # the same window) so machine drift cannot bias the ratio.
    scalar_s = batch_s = 0.0
    rounds = 3
    for _ in range(rounds):
        t0 = time.perf_counter()
        for key in keys:
            intersect_postings(dense.posting_offsets, dense.posting_instances, key)
        scalar_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        intersect_postings_batch(dense, keys)
        batch_s += time.perf_counter() - t0
    scalar_s /= rounds
    batch_s /= rounds
    speedup = scalar_s / batch_s
    benchmark.extra_info["distinct_keys"] = len(keys)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["batch_s"] = round(batch_s, 4)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    benchmark.extra_info["distinct_queries_per_sec"] = round(len(keys) / batch_s, 1)
    benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()
    print(f"\n1k-replay distinct-miss intersection: per-key {scalar_s * 1e3:.1f}ms, "
          f"batch {batch_s * 1e3:.1f}ms, speedup {speedup:.2f}x")
    assert speedup >= 5.0, (
        f"batch intersection kernel {speedup:.2f}x vs the per-key "
        f"np.intersect1d loop (bar: 5x)"
    )
