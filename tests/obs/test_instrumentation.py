"""Metrics-correctness tests for the instrumented hot paths.

Counters are only worth emitting if they match ground truth, so each
test scripts a workload whose hit/miss/eviction tallies can be derived
by hand (or by an explicit oracle simulation) and checks the registry
delta against it.  The last class proves the observational contract:
instrumentation must never leak into cache keys or simulation outputs.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs import MetricsSnapshot, metrics
from repro.overlay.flooding import FloodDepthCache, flood_depths, reach_fractions
from repro.runtime.cache import cached_call, config_digest


def _delta(before: MetricsSnapshot) -> MetricsSnapshot:
    return metrics().delta_since(before)


class TestFloodCounters:
    def test_flood_calls_and_messages(self, ring_topology):
        before = metrics().snapshot()
        _, m1 = flood_depths(ring_topology, 0, 1)
        _, m2 = flood_depths(ring_topology, 0, 2)
        delta = _delta(before)
        assert delta.counter("flood.calls") == 2
        assert (m1, m2) == (2, 6)
        assert delta.counter("flood.messages") == m1 + m2


class TestFloodCacheOracle:
    def test_scripted_expanding_ring_schedule(self, ring_topology):
        """Hit/miss/eviction counters across a hand-checked schedule.

        On the 12-cycle a BFS exhausts at depth 7 (the deepest frontier
        is the antipode at 6), so horizons below 7 stay extendable and
        a horizon-8 entry answers every TTL.
        """
        cache = FloodDepthCache(ring_topology, max_entries=2)
        before = metrics().snapshot()
        schedule = [
            (0, 2),   # miss: cold cache
            (0, 1),   # hit: 1 <= horizon 2
            (0, 3),   # miss: beyond horizon, re-BFS to 3
            (0, 3),   # hit
            (1, 2),   # miss: new source
            (2, 2),   # miss + eviction of source 0 (LRU order 0, 1)
            (0, 2),   # miss again (was evicted) + eviction of 1
            (2, 8),   # miss: beyond horizon 2; BFS to 8 exhausts the ring
            (2, 11),  # hit: exhausted entry supports any TTL
        ]
        for source, ttl in schedule:
            entry = cache.entry(source, ttl)
            assert entry.supports(ttl)
        delta = _delta(before)
        assert delta.counter("flood.cache.hits") == 3
        assert delta.counter("flood.cache.misses") == 6
        assert delta.counter("flood.cache.evictions") == 2
        assert delta.counter("flood.cache.bfs") == 6

    def test_counters_match_lru_simulation(self, small_two_tier):
        """Oracle cross-check on a non-trivial topology and schedule."""
        from repro.utils.rng import make_rng

        rng = make_rng(17)
        sources = rng.integers(0, small_two_tier.n_nodes, size=120)
        ttls = rng.integers(1, 4, size=120)
        cache = FloodDepthCache(small_two_tier, max_entries=8)
        # Oracle: replay the documented policy (LRU of source ->
        # horizon; a miss stores the requested ttl as the new horizon,
        # an exhausted BFS answers everything).
        oracle_lru: dict[int, tuple[int, bool]] = {}
        expect = {"hits": 0, "misses": 0, "evictions": 0}
        before = metrics().snapshot()
        for source, ttl in zip(sources.tolist(), ttls.tolist()):
            cache.entry(source, int(ttl))
            state = oracle_lru.get(source)
            if state is not None and (state[1] or ttl <= state[0]):
                expect["hits"] += 1
                oracle_lru[source] = oracle_lru.pop(source)
            else:
                expect["misses"] += 1
                exhausted = cache._entries[source].exhausted
                oracle_lru.pop(source, None)
                oracle_lru[source] = (int(ttl), exhausted)
                if len(oracle_lru) > 8:
                    oldest = next(iter(oracle_lru))
                    del oracle_lru[oldest]
                    expect["evictions"] += 1
        delta = _delta(before)
        assert delta.counter("flood.cache.hits") == expect["hits"]
        assert delta.counter("flood.cache.misses") == expect["misses"]
        assert delta.counter("flood.cache.evictions") == expect["evictions"]
        assert set(cache._entries) == set(oracle_lru)


class TestScratchContentionRegression:
    """Satellite fix: concurrent BFS must not share scratch masks."""

    def test_concurrent_bfs_depth_maps_stay_correct(self, small_two_tier):
        """Two threads BFS-ing one cache instance must both be exact.

        Before the fix both threads wrote into the shared ``_visited``
        / ``_level_mask`` arrays, silently corrupting each other's
        depth maps.
        """
        cache = FloodDepthCache(small_two_tier, max_entries=64)
        sources = list(range(24))
        expected = {
            s: flood_depths(small_two_tier, s, 5)[0] for s in sources
        }
        results: dict[int, np.ndarray] = {}
        barrier = threading.Barrier(2)

        def run(chunk: list[int]) -> None:
            barrier.wait()
            for s in chunk:
                results[s] = cache._bfs(s, 5).depth_at(5)

        threads = [
            threading.Thread(target=run, args=(sources[0::2],)),
            threading.Thread(target=run, args=(sources[1::2],)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # A thread that died shows up as a missing key below.
        for s in sources:
            np.testing.assert_array_equal(results[s], expected[s])


class TestMatchCacheCounters:
    def test_hit_miss_tally(self, small_content, small_trace):
        from repro.analysis.tokenize import tokenize_name

        trace = small_trace
        name = trace.names.lookup(int(trace.name_ids[0]))
        key = small_content.query_key(list(tokenize_name(name))[:2])
        assert key is not None
        key_a = tuple(int(t) for t in key)
        before = metrics().snapshot()
        small_content.match_key(key_a)
        small_content.match_key(key_a)
        small_content.match_key(key_a)
        delta = _delta(before)
        # First lookup may hit if another test already warmed this key;
        # the repeat lookups must all be hits either way.
        assert delta.counter("match.cache.hits") >= 2
        assert (
            delta.counter("match.cache.hits")
            + delta.counter("match.cache.misses")
        ) == 3


class TestInstrumentationIsObservational:
    """Registry state must never reach cache keys or sim outputs."""

    def test_config_digest_ignores_registry_activity(self):
        cfg = {"n_eval_objects": 60, "seed": 0}
        digest_before = config_digest(cfg)
        registry = metrics()
        registry.inc("noise.counter", 1234)
        registry.gauge("noise.gauge", 3.5)
        with registry.timer("noise.timer"):
            pass
        assert config_digest(cfg) == digest_before

    def test_cached_call_hits_despite_timer_churn(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        digest = config_digest({"x": 1})
        before = metrics().snapshot()
        first = cached_call("obs-test", 1, digest, lambda: [1, 2, 3])
        with metrics().timer("between.runs"):
            pass
        second = cached_call("obs-test", 1, digest, lambda: [1, 2, 3])
        delta = _delta(before)
        assert first == second
        assert delta.counter("artifact_cache.misses") == 1
        assert delta.counter("artifact_cache.hits") == 1

    def test_reach_fractions_bitwise_with_metrics_enabled(self, small_two_tier):
        sources = np.arange(6)
        ttls = [1, 2, 3]
        before_serial = metrics().snapshot()
        serial = reach_fractions(small_two_tier, sources, ttls, n_workers=1)
        serial_delta = _delta(before_serial)
        before_parallel = metrics().snapshot()
        parallel = reach_fractions(small_two_tier, sources, ttls, n_workers=2)  # simlint: ignore[SIM011] serial-vs-parallel equivalence needs the identical stream
        parallel_delta = _delta(before_parallel)
        np.testing.assert_array_equal(serial, parallel)
        # The merged worker deltas reconstruct the serial tallies for
        # every deterministic counter (one lossless flood per source).
        for name in ("flood.calls", "flood.messages"):
            assert parallel_delta.counter(name) == serial_delta.counter(name)
        assert serial_delta.counter("flood.calls") == sources.size
