"""PERF — Microbenchmarks of the numeric hot paths.

Unlike the experiment benches (single-shot regenerations), these are
real repeated-measurement microbenchmarks of the kernels everything
else is built on — the pieces the hpc-parallel guidance says to keep
vectorized.  Regressions here slow every experiment, so they get
dedicated timings: Zipf sampling, replica counting, flooding, Bloom
probing and Chord routing — and the start-up of ``repro serve``, which
a restart to swap state pays in full, and the bytes its match cache
keeps alive.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import peak_rss_bytes

from repro.dht.chord import ChordRing
from repro.overlay.batch import BatchQueryEngine
from repro.overlay.content import intersect_postings, intersect_postings_batch
from repro.overlay.flooding import flood_depths, flood_level_counts
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.topology import two_tier_gnutella
from repro.utils.bloom import BloomFilter
from repro.utils.rng import make_rng
from repro.utils.text import StringInterner
from repro.utils.zipf import ZipfDistribution


@pytest.fixture(autouse=True)
def _record_peak_rss(request):
    """Stamp the post-test RSS high-water mark next to each timing.

    ``ru_maxrss`` is monotone, so the per-test values are cumulative
    maxima — the interesting signal is the *jump* a kernel causes
    (e.g. the 40k flood suddenly allocating int64 scratch again).
    """
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if benchmark is not None:
        benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()


@pytest.fixture(scope="module")
def zipf_dist():
    return ZipfDistribution(1_000_000, 1.0)


def test_perf_zipf_sampling(benchmark, zipf_dist):
    """1M-rank inverse-CDF sampling, 100k draws per round."""
    rng = make_rng(0)
    out = benchmark(zipf_dist.sample, 100_000, rng)
    assert out.size == 100_000


def test_perf_replica_counting(benchmark):
    """Distinct-holder counting over 1M (value, holder) pairs."""
    rng = make_rng(1)
    values = rng.integers(0, 200_000, size=1_000_000)
    holders = rng.integers(0, 40_000, size=1_000_000)

    from repro.analysis.popularity import clients_per_value

    counts = benchmark(clients_per_value, values, holders)
    assert counts.sum() > 0


def test_perf_flood_40k(benchmark):
    """Full-depth flood on the 40k-node Fig. 8 topology."""
    topo = two_tier_gnutella(40_000, up_up_degree=8.0, seed=0)

    def run():
        depth, _ = flood_depths(topo, 3, 5)
        return depth

    depth = benchmark(run)
    assert (depth >= 0).sum() > 1_000


def test_perf_flood_40k_lossy(benchmark):
    """Lossy flood (per-edge Bernoulli drops) on the 40k topology."""
    topo = two_tier_gnutella(40_000, up_up_degree=8.0, seed=0)
    rng = make_rng(4)

    def run():
        depth, _ = flood_depths(topo, 3, 5, p_loss=0.2, rng=rng)
        return depth

    depth = benchmark(run)
    assert (depth >= 0).sum() > 100


def test_perf_flood_success_curve(benchmark):
    """One Fig. 8 Zipf curve (30 objects) on an 8k-node topology."""
    from repro.core.experiment import Fig8TopologyConfig, build_fig8_topology
    from repro.core.flood_sim import PlacementSpec, run_flood_success

    topo = build_fig8_topology(Fig8TopologyConfig(n_nodes=8_000))

    curve = benchmark(
        run_flood_success,
        topo,
        PlacementSpec(),
        n_eval_objects=30,
        seed=0,
    )
    assert curve.success.size == 5


def test_perf_fig8_floods(benchmark):
    """The 480 floods of perfbench's Fig. 8 run: lane kernel vs one BFS each.

    6 curves x 80 replica sets on the 40k-node topology at TTL 5, the
    sets ``run_fig8(FloodSimConfig(n_eval_objects=80))`` draws.  The
    lane kernel must stay at least 3x faster than looping
    ``flood_depths`` over the same sets, and count what that loop's
    depth maps count.
    """
    from repro.core.experiment import build_fig8_topology
    from repro.core.flood_sim import FloodSimConfig, PlacementSpec, _replica_sets

    cfg = FloodSimConfig(n_eval_objects=80)
    topo = build_fig8_topology(cfg.topology)
    specs = [cfg.zipf] + [
        PlacementSpec(kind="uniform", n_replicas=r) for r in cfg.uniform_replicas
    ]
    max_ttl = max(cfg.ttls)
    replica_sets = [
        sets
        for spec in specs
        for sets in _replica_sets(spec, topo.n_nodes, cfg.n_eval_objects, cfg.seed)
    ]

    def lanes():
        # One kernel call per curve, as run_flood_success makes.
        return np.concatenate([
            flood_level_counts(topo, replica_sets[lo : lo + cfg.n_eval_objects],
                               max_ttl, among=topo.forwards)
            for lo in range(0, len(replica_sets), cfg.n_eval_objects)
        ])

    counts = benchmark.pedantic(lanes, rounds=3, iterations=1)
    lane_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        lanes()
        lane_s = min(lane_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    for sources in replica_sets:
        flood_depths(topo, sources, max_ttl)
    per_flood_s = time.perf_counter() - t0

    assert counts.shape == (480, max_ttl + 1)
    for i in (0, 240, 479):
        depth, _ = flood_depths(topo, replica_sets[i], max_ttl)
        d = depth[topo.forwards]
        np.testing.assert_array_equal(
            counts[i], np.bincount(d[d >= 0], minlength=max_ttl + 1)
        )
    speedup = per_flood_s / lane_s
    benchmark.extra_info["floods"] = len(replica_sets)
    benchmark.extra_info["per_flood_s"] = round(per_flood_s, 3)
    benchmark.extra_info["speedup_vs_per_flood"] = round(speedup, 1)
    print(f"\n480 Fig. 8 floods: per-flood {per_flood_s:.2f}s, "
          f"lanes {lane_s:.3f}s, speedup {speedup:.1f}x")
    assert speedup >= 3.0


def test_perf_to_networkx(benchmark):
    """CSR-to-networkx export of the 40k-node topology."""
    topo = two_tier_gnutella(40_000, up_up_degree=8.0, seed=0)

    g = benchmark(topo.to_networkx)
    assert g.number_of_edges() == topo.n_edges


def test_perf_batched_replay_1k(benchmark, bundle, content):
    """1,000-query Zipf replay: batched engine vs per-query floods.

    The batched engine's acceptance bar: at least 5x the scalar
    throughput on a workload-scale replay (repeated Zipf queries from
    a bounded ultrapeer source pool).  Both paths share the content
    index's memoized match cache, so the comparison isolates what the
    engine actually adds: BFS dedup through the flood-depth cache and
    columnar evaluation.
    """
    topology = two_tier_gnutella(content.n_peers, ultrapeer_fraction=0.3, seed=23)
    network = UnstructuredNetwork(topology, content)
    workload = bundle.workload
    rng = make_rng(23)
    n = 1_000
    picks = rng.integers(0, workload.n_queries, size=n)
    n_up = int(topology.forwards.sum())
    pool = rng.choice(n_up, size=64, replace=False)
    sources = pool[rng.integers(0, pool.size, size=n)]
    queries = [workload.query_words(int(q)) for q in picks]

    t0 = time.perf_counter()
    scalar = [
        network.query_flood(int(s), q, ttl=3) for s, q in zip(sources, queries)
    ]
    scalar_s = time.perf_counter() - t0

    def run():
        # A fresh engine per round: the speedup must not lean on BFS
        # results warmed by a previous measurement.
        engine = BatchQueryEngine(topology, content)
        return engine.evaluate(sources, queries, ttl_schedule=(3,))

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    t0 = time.perf_counter()
    BatchQueryEngine(topology, content).evaluate(
        sources, queries, ttl_schedule=(3,)
    )
    batched_s = time.perf_counter() - t0

    # Bitwise equivalence with the scalar path, then the speed bar.
    for i in (0, n // 2, n - 1):
        assert bool(out.success[i]) == scalar[i].succeeded
        assert int(out.messages[i]) == scalar[i].messages
    speedup = scalar_s / batched_s
    benchmark.extra_info["scalar_s"] = round(scalar_s, 3)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 1)
    print(f"\n1k-query replay: scalar {scalar_s:.2f}s, "
          f"batched {batched_s:.3f}s, speedup {speedup:.1f}x")
    assert speedup >= 5.0


def test_perf_match_batch_1k(benchmark, bundle, content):
    """Deduplicated batch matching of 1,000 Zipf workload queries."""
    workload = bundle.workload
    rng = make_rng(29)
    picks = rng.integers(0, workload.n_queries, size=1_000)
    queries = [workload.query_words(int(q)) for q in picks]

    matches = benchmark(content.match_batch, queries)
    assert matches.n_queries == 1_000
    assert matches.n_distinct < 1_000  # the Zipf repeats dedup


def test_perf_intersect_batch_1k(benchmark, bundle, content):
    """Distinct-miss AND-intersection: batch kernel vs per-key loop.

    The same 1,000-query Zipf replay as above, reduced to what
    ``match_batch`` actually computes on a cold cache: the distinct
    canonical keys.  The batch kernel must beat looping
    ``intersect_postings`` per key; at this bundle scale the workload
    is call-overhead-bound, so the hard >=5x bar lives in the nightly
    million-peer bench (``bench_scale_content.py``) where element work
    dominates — here the bar only catches regressions below the loop.
    """
    workload = bundle.workload
    rng = make_rng(29)
    picks = rng.integers(0, workload.n_queries, size=1_000)
    seen = set()
    keys = []
    for q in picks:
        key = content.query_key(workload.query_words(int(q)))
        if key is not None and key not in seen:
            seen.add(key)
            keys.append(key)
    dense = content.dense_postings()

    t0 = time.perf_counter()
    expected = [
        intersect_postings(dense.posting_offsets, dense.posting_instances, key)
        for key in keys
    ]
    scalar_s = time.perf_counter() - t0

    rows = benchmark(intersect_postings_batch, dense, keys)
    t0 = time.perf_counter()
    intersect_postings_batch(dense, keys)
    batch_s = time.perf_counter() - t0

    assert len(rows) == len(keys)
    for i in (0, len(keys) // 2, len(keys) - 1):
        np.testing.assert_array_equal(rows[i], expected[i])
    speedup = scalar_s / batch_s
    benchmark.extra_info["distinct_keys"] = len(keys)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    print(f"\n1k-replay intersection: per-key {scalar_s * 1e3:.2f}ms, "
          f"batch {batch_s * 1e3:.2f}ms, speedup {speedup:.2f}x")
    assert speedup >= 1.2


def test_perf_synopsis_rebuild(benchmark, bundle, content):
    """One synopsis rebuild over the default 1,000-peer index.

    ``repro report`` runs 145 of these in ``run_synopsis_experiment``
    (one per static policy, one per adaptive epoch).  The scores are
    the historical query popularity the adaptive policy starts from.
    """
    from repro.core.synopsis import (
        PeerSynopses,
        SynopsisConfig,
        _build_synopses,
        _peer_term_pairs,
    )

    cfg = SynopsisConfig()
    workload = bundle.workload
    pairs = _peer_term_pairs(content)
    vocab = np.array([
        -1 if content.term_id(w) is None else content.term_id(w)
        for w in workload.vocab_words
    ])
    cutoff = cfg.train_fraction * workload.config.duration_s
    n_train = int(np.searchsorted(workload.timestamps, cutoff))
    train = vocab[workload.term_ids[: workload.term_offsets[n_train]]]
    scores = np.bincount(train[train >= 0], minlength=pairs.n_terms).astype(np.float64)
    synopses = PeerSynopses(content.n_peers, cfg.capacity, cfg.fp_rate)
    positions = synopses._positions(np.arange(pairs.n_terms))

    benchmark(_build_synopses, synopses, pairs, positions, scores, cfg.capacity)
    benchmark.extra_info["pairs"] = int(pairs.peer.size)
    assert synopses.bits.any(axis=1).sum() == np.unique(pairs.peer).size


def test_perf_intern_bulk(benchmark):
    """Bulk interning of 200k strings (~30k distinct)."""
    rng = make_rng(31)
    strings = [f"token-{int(i)}" for i in rng.integers(0, 30_000, size=200_000)]

    def run():
        return StringInterner().intern_bulk(strings)

    ids = benchmark(run)
    assert ids.size == 200_000


def test_perf_simlint_full(benchmark):
    """Full-repo simlint run (src + tests + benchmarks).

    The analyzer is a pre-commit hook and a tier-1 test, so its wall
    time is a tracked perf surface like any kernel: the project rules
    ride the same phase-1 index and the memoized ``own_nodes``
    traversal, and this bench pins the whole pipeline under the same
    5 s budget ``test_self_clean`` enforces.  One round: the run is
    seconds-scale and the WeakKeyDictionary caches would make warm
    repeats measure a different (easier) workload.
    """
    import gc
    from pathlib import Path

    from repro.lint import find_pyproject, load_config, run_lint

    repo_root = Path(__file__).parents[1]
    config = load_config(find_pyproject(repo_root / "src"))
    paths = [repo_root / "src", repo_root / "tests", repo_root / "benchmarks"]

    def run_frozen():
        # The lint allocates millions of short-lived AST nodes; without
        # freezing, every gen-2 collection also scans this process's
        # large numpy/pytest heap and the measurement charges that to
        # the linter.  Freeze the pre-existing heap so the timing is
        # the analyzer's own, as in the (small-heap) tier-1 process.
        gc.collect()
        gc.freeze()
        try:
            return run_lint(paths, config)
        finally:
            gc.unfreeze()

    run = benchmark.pedantic(run_frozen, rounds=1, iterations=1)
    benchmark.extra_info["files_checked"] = run.files_checked
    benchmark.extra_info["index_build_seconds"] = round(run.index_build_seconds, 3)
    assert run.files_checked >= 180
    assert run.total_seconds < 5.0, (
        f"full-repo lint took {run.total_seconds:.2f}s (budget 5s)"
    )


def test_perf_bloom_probe(benchmark):
    """100k membership probes against a 100k-capacity filter."""
    bf = BloomFilter.for_capacity(100_000, fp_rate=0.01)
    bf.add(np.arange(0, 200_000, 2))
    probes = np.arange(100_000)

    hits = benchmark(bf.contains, probes)
    assert hits.shape == (100_000,)


def test_perf_chord_lookup(benchmark):
    """Single Chord lookup on a 10k-node ring."""
    ring = ChordRing(10_000, seed=0)
    rng = make_rng(2)
    keys = rng.integers(0, 2**63, size=512, dtype=np.uint64)
    i = iter(range(1 << 30))

    def run():
        k = int(keys[next(i) % keys.size])
        return ring.lookup(k, 0).hops

    hops = benchmark(run)
    assert hops >= 0


def _root(array: np.ndarray) -> np.ndarray:
    """The array at the end of ``array``'s base chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("n_shards", [1, 2])
def test_perf_match_cache_retention(benchmark, n_shards):
    """Bytes the match cache keeps alive, against the bytes of its rows.

    40 batches of 500 keys of the 5k-node fixture, drawn as perfbench's
    serve-batch warm-up draws them (Zipf 0.9 over the first 16,384
    distinct workload queries), are prefetched the way the engine's
    serial path prefetches a round: through the reader of a published
    posting set.  ``retained_bytes`` sums the distinct buffers reachable
    from the cached rows, the index's own postings aside; a row that
    views a per-batch gather would keep that whole buffer alive.
    """
    from repro.core.experiment import build_content_index, build_trace_bundle
    from repro.overlay.batch import posting_reader
    from repro.runtime.shm import ShardedPostings
    from repro.serve.load import build_query_pool
    from repro.tracegen.gnutella_trace import GnutellaTraceConfig

    bundle = build_trace_bundle(trace_config=GnutellaTraceConfig(n_peers=5_000))
    content = build_content_index(bundle.trace)
    pool = build_query_pool(bundle.workload, 16_384)
    weights = np.arange(1, len(pool) + 1, dtype=np.float64) ** -0.9
    weights /= weights.sum()
    picks = make_rng(5).choice(len(pool), size=(40, 500), p=weights)
    keys = [content.query_key(q) for q in pool]
    batches = [[keys[p] for p in row if keys[p] is not None] for row in picks]
    elapsed: list[float] = []

    def prefetch_all() -> None:
        with ShardedPostings(content, n_shards=n_shards) as share:
            reader = posting_reader(share.provider)
            t0 = time.perf_counter()
            for batch in batches:
                content.prefetch_keys(batch, provider=reader)
            elapsed.append(time.perf_counter() - t0)

    benchmark.pedantic(prefetch_all, rounds=1, iterations=1)
    rows = list(content._match_cache.values())
    postings = _root(content.dense_postings().posting_instances)
    roots = {id(r): r for r in map(_root, rows) if r is not postings}
    row_bytes = sum(r.nbytes for r in rows)
    retained_bytes = sum(r.nbytes for r in roots.values())
    n_rows = sum(len(batch) for batch in batches)
    benchmark.extra_info["row_bytes"] = row_bytes
    benchmark.extra_info["retained_bytes"] = retained_bytes
    benchmark.extra_info["prefetch_us_per_row"] = round(elapsed[0] / n_rows * 1e6, 2)
    print(f"\n{n_shards} shard(s): {len(rows)} rows, {row_bytes / 1e6:.2f} MB of rows, "
          f"{retained_bytes / 1e6:.2f} MB retained")
    assert retained_bytes <= row_bytes


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _vm_hwm_mb(pid: int) -> float:
    """A live process's resident-set high-water mark, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _psm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _serve_until_ready(ready_file: Path, log: Path) -> tuple[float, float]:
    """Spawn ``repro serve``, wait for its ready file, SIGTERM it.

    Returns (spawn-to-ready seconds, the server's VmHWM in MB).  The
    server must exit 0 and leave no shared-memory segment behind.
    """
    ready_file.unlink(missing_ok=True)
    before = _psm_segments()
    with log.open("wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--ready-file", str(ready_file)],
            env={**os.environ, "PYTHONPATH": _SRC},
            stdout=out,
            stderr=subprocess.STDOUT,
        )
    try:
        while not (ready_file.is_file() and ready_file.read_text().endswith("\n")):
            assert proc.poll() is None, f"server exited before ready; see {log}"
            assert time.perf_counter() - t0 < 120, f"server not ready; see {log}"
            time.sleep(0.002)
        ready_s = time.perf_counter() - t0
        hwm_mb = _vm_hwm_mb(proc.pid)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0, f"server failed on SIGTERM; see {log}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert _psm_segments() <= before, "server left shared memory behind"
    return ready_s, hwm_mb


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm") or not os.path.isdir("/proc/self"),
    reason="needs Linux /proc and POSIX shared memory",
)
def test_perf_serve_startup(benchmark, tmp_path):
    """Spawn-to-ready seconds and peak RSS of ``repro serve``, warm cache.

    The 5k-node fixture the service loads by default is warmed in this
    process first, as perfbench warms its own cache, so every start-up
    loads through the memory-mapped blob path a restarted service takes.
    """
    from repro.core.experiment import (
        Fig8TopologyConfig,
        build_content_index,
        build_fig8_topology,
        build_trace_bundle,
    )
    from repro.tracegen.gnutella_trace import GnutellaTraceConfig

    build_fig8_topology(Fig8TopologyConfig(n_nodes=5_000))
    build_content_index(
        build_trace_bundle(trace_config=GnutellaTraceConfig(n_peers=5_000)).trace
    )

    samples: list[tuple[float, float]] = []

    def start_and_stop() -> None:
        samples.append(
            _serve_until_ready(tmp_path / "ready", tmp_path / "server.log")
        )

    benchmark.pedantic(start_and_stop, rounds=3, iterations=1)
    ready_s = statistics.median(s for s, _ in samples)
    hwm_mb = statistics.median(m for _, m in samples)
    benchmark.extra_info["ready_s"] = round(ready_s, 3)
    benchmark.extra_info["server_vm_hwm_mb"] = round(hwm_mb, 1)
    print(f"\nrepro serve start-up: {ready_s:.2f}s to ready, VmHWM {hwm_mb:.0f} MB")
