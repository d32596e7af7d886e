"""SCALE — Million-node Fig. 8 smoke (nightly).

The 40k-node benches answer "did the kernels regress"; this one
answers "does the million-node path still work, and at what cost".  It
exercises every layer the scale work added: streaming topology
generation (``edge_block``), the zero-copy mmap artifact cache
(second topology build must be sub-second), and the flat flood
kernel, recording wall time, ``peak_rss_bytes`` and nodes/sec into
``BENCH_perf.json`` via the shared conftest hook.

Peak RSS is checked against a per-node byte figure derived from the
array dtypes (CSR + depth map — postings are not built here) times a
slack factor for BFS scratch and the interpreter; a failure means the
measured footprint regressed past what those dtypes promise.

Gated by ``REPRO_SCALE_BENCH=1`` (set by the nightly workflow): a
million-node run has no place in the per-PR test path.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import peak_rss_bytes

from repro.core.experiment import Fig8TopologyConfig, build_fig8_topology
from repro.core.flood_sim import FloodSimConfig, run_fig8
from repro.overlay.flooding import flood_depths

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_BENCH") != "1",
    reason="million-node smoke runs nightly; set REPRO_SCALE_BENCH=1 to run",
)

N_NODES = 1_000_000
#: Streaming block size: ~2 MiB of edge draw per block.
EDGE_BLOCK = 1 << 17
#: Bytes per node, from the dtypes at the 6.6 mean directed degree of
#: the Fig. 8 topology.  CSR + depth map: int32 offsets (4) + int32
#: neighbors (6.6 x 4 = 26.4) + bool forwards (1) + int16 depth (2).
CSR_DEPTH_BYTES_PER_NODE = 33.4
#: Measured RSS may exceed the per-node figure by this factor (BFS
#: scratch masks, the frontier, interpreter overhead, and the
#: transient per-shard build buffers are not in it).
RSS_SLACK = 3.0
#: Interpreter + numpy baseline not attributable to per-node arrays.
RSS_BASELINE_BYTES = 512 * 1024 * 1024

SCALE_CONFIG = Fig8TopologyConfig(n_nodes=N_NODES, edge_block=EDGE_BLOCK)


def _budgeted_rss_limit() -> int:
    """Byte ceiling from the per-node figure (637,070,912 B at 1M nodes)."""
    return int(RSS_BASELINE_BYTES + RSS_SLACK * CSR_DEPTH_BYTES_PER_NODE * N_NODES)


@pytest.fixture(scope="module")
def scale_topology():
    return build_fig8_topology(SCALE_CONFIG)


def test_scale_streaming_generation(benchmark):
    """1M-node streamed build: wall time + RSS vs the per-node ceiling."""

    def run():
        return build_fig8_topology(SCALE_CONFIG)

    topo = benchmark.pedantic(run, rounds=1, iterations=1)
    assert topo.n_nodes == N_NODES
    assert int(topo.forwards.sum()) == 300_000
    rss = peak_rss_bytes()
    limit = _budgeted_rss_limit()
    benchmark.extra_info["n_nodes"] = N_NODES
    benchmark.extra_info["n_directed_entries"] = int(topo.neighbors.size)
    benchmark.extra_info["peak_rss_bytes"] = rss
    benchmark.extra_info["peak_rss_limit_bytes"] = limit
    assert rss <= limit, (
        f"peak RSS {rss / 2**30:.2f} GiB exceeds the ceiling "
        f"{limit / 2**30:.2f} GiB (bytes per node x {RSS_SLACK} slack)"
    )


def test_scale_mmap_cache_reload(benchmark, scale_topology):
    """Second build is a zero-copy cache hit: sub-second, memmap-backed."""

    def reload():
        return build_fig8_topology(SCALE_CONFIG)

    start = time.perf_counter()
    cached = benchmark.pedantic(reload, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    assert isinstance(cached.neighbors, np.memmap)
    assert cached.n_nodes == N_NODES
    benchmark.extra_info["reload_seconds"] = elapsed
    assert elapsed < 1.0, f"mmap cache reload took {elapsed:.2f}s (budget: 1s)"


def test_scale_flat_flood(benchmark, scale_topology):
    """Full-depth floods at 1M nodes through the flat kernel: nodes/sec."""
    sources = np.arange(16, dtype=np.int64) * 61_441  # spread over the id range

    def run():
        reached = 0
        for source in sources:
            depth, _ = flood_depths(scale_topology, int(source), 7)
            reached += int((depth >= 0).sum())
        return reached

    start = time.perf_counter()
    total_reached = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    benchmark.extra_info["floods"] = int(sources.size)
    benchmark.extra_info["nodes_reached"] = total_reached
    benchmark.extra_info["nodes_per_sec"] = (
        total_reached / elapsed if elapsed > 0 else 0.0
    )
    benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()
    assert total_reached > sources.size * N_NODES * 0.5  # floods actually spread


def test_scale_fig8_run(benchmark):
    """A reduced Fig. 8 sweep at 1M nodes."""

    def run():
        return run_fig8(
            FloodSimConfig(
                topology=SCALE_CONFIG,
                ttls=(1, 2, 3, 4, 5),
                n_eval_objects=8,
                uniform_replicas=(9,),
            )
        )

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    rss = peak_rss_bytes()
    benchmark.extra_info["wall_seconds"] = elapsed
    benchmark.extra_info["peak_rss_bytes"] = rss
    # Success must be monotone in TTL and non-degenerate.
    for curve in result.curves:
        assert (np.diff(curve.success) >= 0).all()
        assert 0.0 <= curve.success[-1] <= 1.0
