"""The open-loop load driver: schedules, sampling, and a live mini-run.

Schedule and sampling tests pin the open-loop invariants (determinism,
rate preservation, burst shape); the live test drives a real server on
a loopback socket and checks the report's accounting closes.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve.load import (
    LoadConfig,
    LoadReport,
    arrival_offsets,
    build_query_pool,
    run_load,
    sample_query_indices,
    sample_sources,
)
from repro.serve.server import OverlayQueryServer


class TestLoadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(qps=0)
        with pytest.raises(ValueError):
            LoadConfig(profile="sawtooth")
        with pytest.raises(ValueError):
            LoadConfig(burst_factor=0.5)
        with pytest.raises(ValueError):
            LoadConfig(timeout_s=0)

    def test_n_requests_rounds_rate_times_duration(self):
        assert LoadConfig(qps=50, duration_s=5).n_requests == 250
        assert LoadConfig(qps=0.1, duration_s=1).n_requests == 1


class TestArrivalSchedules:
    def test_uniform_spacing_is_exact(self):
        config = LoadConfig(qps=20, duration_s=2, profile="uniform")
        offsets = arrival_offsets(config)
        assert offsets.size == 40
        assert offsets[0] == 0.0
        np.testing.assert_allclose(np.diff(offsets), 1.0 / 20.0)

    def test_poisson_is_deterministic_and_seed_sensitive(self):
        config = LoadConfig(qps=100, duration_s=2, profile="poisson", seed=3)
        a = arrival_offsets(config)
        b = arrival_offsets(config)
        np.testing.assert_array_equal(a, b)
        other = arrival_offsets(
            LoadConfig(qps=100, duration_s=2, profile="poisson", seed=4)
        )
        assert not np.array_equal(a, other)
        assert np.all(np.diff(a) >= 0)

    def test_poisson_mean_rate_is_near_target(self):
        config = LoadConfig(
            qps=200, duration_s=10, profile="poisson", seed=0
        )
        offsets = arrival_offsets(config)
        # 2000 exponential gaps: the empirical rate concentrates.
        assert offsets[-1] / config.n_requests == pytest.approx(
            1.0 / 200.0, rel=0.1
        )

    def test_burst_alternates_hot_and_cold_at_preserved_mean(self):
        config = LoadConfig(
            qps=40, duration_s=5, profile="burst",
            burst_factor=4, burst_period_s=1,
        )
        offsets = arrival_offsets(config)
        assert offsets.size == config.n_requests
        assert np.all(np.diff(offsets) >= 0)
        # Whole run still fits the nominal duration (mean preserved).
        assert offsets[-1] < config.duration_s
        hot = np.count_nonzero(offsets < 0.5)
        cold = np.count_nonzero((offsets >= 0.5) & (offsets < 1.0))
        assert hot == pytest.approx(cold * config.burst_factor, abs=1)


class TestSampling:
    def test_query_choice_is_zipf_skewed_and_deterministic(self):
        config = LoadConfig(seed=7, zipf_exponent=1.0)
        picks = sample_query_indices(config, 4000, pool=32)
        np.testing.assert_array_equal(
            picks, sample_query_indices(config, 4000, pool=32)
        )
        assert picks.min() >= 0 and picks.max() < 32
        counts = np.bincount(picks, minlength=32)
        # Rank-1 query dominates the tail rank by roughly the Zipf
        # ratio; an order-of-magnitude check keeps this robust.
        assert counts[0] > 4 * counts[31]

    def test_sources_cover_range_deterministically(self):
        config = LoadConfig(seed=7)
        sources = sample_sources(config, 1000, n_nodes=120)
        np.testing.assert_array_equal(
            sources, sample_sources(config, 1000, n_nodes=120)
        )
        assert sources.min() >= 0 and sources.max() < 120
        assert sources.dtype == np.int64

    def test_streams_are_independent(self):
        # Query picks and source picks must come from distinct derived
        # streams — identical shapes must not correlate.
        config = LoadConfig(seed=7)
        a = sample_query_indices(config, 500, pool=120)
        b = sample_sources(config, 500, n_nodes=120)
        assert not np.array_equal(a, b)

    def test_build_query_pool_distinct_nonempty(self, small_workload):
        pool = build_query_pool(small_workload, 16)
        assert 0 < len(pool) <= 16
        assert all(pool)
        assert len({tuple(q) for q in pool}) == len(pool)


class TestLoadReport:
    def test_as_dict_and_rows_shapes(self):
        registry = MetricsRegistry()
        registry.observe_hist("load.latency", 0.004)
        report = LoadReport(
            sent=10, ok=8, shed=1, timeouts=1, unanswered=0, errors=0,
            offered_qps=50.0, achieved_qps=40.0, duration_s=0.2,
            latency=registry.histogram("load.latency"),
            status_counts={200: 8, 429: 1},
        )
        doc = report.as_dict()
        assert doc["sent"] == 10
        assert doc["status_counts"] == {"200": 8, "429": 1}
        assert doc["latency"]["count"] == 1
        labels = [label for label, _ in report.as_rows()]
        assert "latency p99" in labels

    def test_rows_without_latency_when_nothing_succeeded(self):
        report = LoadReport(
            sent=5, ok=0, shed=5, timeouts=0, unanswered=0, errors=0,
            offered_qps=50.0, achieved_qps=0.0, duration_s=0.1,
            latency=MetricsRegistry().histogram("load.latency"),
            status_counts={429: 5},
        )
        labels = [label for label, _ in report.as_rows()]
        assert "latency p99" not in labels


class TestLiveRun:
    def test_mini_run_accounting_closes(self, serve_state, query_pool):
        config = LoadConfig(
            qps=40, duration_s=0.5, profile="uniform",
            pool_size=len(query_pool), ttl=3, timeout_s=10.0, seed=1,
        )

        async def scenario():
            server = OverlayQueryServer(serve_state)
            await server.start()
            try:
                return await run_load(
                    server.host,
                    server.port,
                    config,
                    queries=query_pool,
                    n_nodes=serve_state.n_nodes,
                )
            finally:
                await server.shutdown(drain_timeout_s=10.0)

        report = asyncio.run(scenario())
        assert report.sent == config.n_requests
        assert (
            report.ok + report.shed + report.timeouts + report.unanswered
            + report.errors == report.sent
        )
        # Loopback + warm engine: everything should complete.
        assert report.ok == report.sent
        assert report.latency.count == report.ok
        assert report.achieved_qps > 0
        assert report.duration_s > 0

    def test_stalled_server_counts_unanswered_not_timeouts(self):
        # A server that reads every request and never replies: each
        # request outlives twice its timeout on the client side.  That
        # is a stall, not a server 504.
        config = LoadConfig(
            qps=20, duration_s=0.25, profile="uniform", pool_size=2,
            ttl=3, timeout_s=0.1, seed=1,
        )
        stalled: list[asyncio.StreamWriter] = []

        async def never_reply(reader, writer):
            stalled.append(writer)
            await reader.readuntil(b"\r\n\r\n")

        async def scenario():
            server = await asyncio.start_server(never_reply, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_load(
                    "127.0.0.1", port, config,
                    queries=[["a"], ["b"]], n_nodes=10,
                )
            finally:
                for writer in stalled:
                    writer.close()
                server.close()
                await server.wait_closed()

        report = asyncio.run(scenario())
        assert report.sent == config.n_requests > 0
        assert report.unanswered == report.sent
        assert report.timeouts == 0
        assert report.as_dict()["unanswered"] == report.sent
