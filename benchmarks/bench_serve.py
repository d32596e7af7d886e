"""SERVE — end-to-end service latency under open-loop load.

One resident :class:`ServiceState` (the 5k-node Fig. 8 fixture the CI
smoke job also serves), one loopback :class:`OverlayQueryServer`, and
the project's own open-loop driver offering a fixed request rate.  The
timing pytest-benchmark records is the whole run; the SLO numbers that
matter — client-observed p50/p99 latency and the achieved rate — ride
along in ``extra_info`` and land in ``BENCH_perf.json``.

Two profiles: ``uniform`` measures steady-state latency, ``burst``
stresses admission control (hot half-periods at 4x the mean rate must
shed with 429s rather than stretch the tail unboundedly).
"""

from __future__ import annotations

import asyncio

import pytest

from conftest import peak_rss_bytes

from repro.core.experiment import (
    Fig8TopologyConfig,
    build_content_index,
    build_fig8_topology,
    build_trace_bundle,
)
from repro.serve.load import LoadConfig, LoadReport, build_query_pool, run_load
from repro.serve.server import OverlayQueryServer
from repro.serve.state import ServiceState
from repro.tracegen.gnutella_trace import GnutellaTraceConfig

N_NODES = 5_000
SEED = 0


@pytest.fixture(scope="module")
def serving():
    """Resident state + query pool over the same indexed vocabulary."""
    topology = build_fig8_topology(
        Fig8TopologyConfig(n_nodes=N_NODES, seed=SEED)
    )
    bundle = build_trace_bundle(
        trace_config=GnutellaTraceConfig(n_peers=N_NODES, seed=SEED)
    )
    content = build_content_index(bundle.trace)
    with ServiceState(topology, content) as state:
        yield state, build_query_pool(bundle.workload, 64)


def _drive(state: ServiceState, config: LoadConfig, pool) -> LoadReport:
    async def scenario() -> LoadReport:
        server = OverlayQueryServer(state)
        await server.start()
        try:
            return await run_load(
                server.host,
                server.port,
                config,
                queries=pool,
                n_nodes=state.n_nodes,
            )
        finally:
            await server.shutdown(drain_timeout_s=30.0)

    return asyncio.run(scenario())


def _record(benchmark, report: LoadReport) -> None:
    lat = report.latency
    benchmark.extra_info.update(
        {
            "sent": report.sent,
            "ok": report.ok,
            "shed": report.shed,
            "timeouts": report.timeouts,
            "unanswered": report.unanswered,
            "errors": report.errors,
            "offered_qps": report.offered_qps,
            "achieved_qps": report.achieved_qps,
            "latency_p50_ms": lat.quantile(0.5) * 1e3 if lat.count else None,
            "latency_p99_ms": lat.quantile(0.99) * 1e3 if lat.count else None,
            "latency_max_ms": lat.max_v * 1e3 if lat.count else None,
            "peak_rss_bytes": peak_rss_bytes(),
        }
    )


def test_serve_uniform_load(benchmark, serving):
    """Steady 40 qps for 5 s: the SLO-report numbers."""
    state, pool = serving
    config = LoadConfig(
        qps=40, duration_s=5, profile="uniform", ttl=3, seed=1
    )
    report = benchmark.pedantic(
        _drive, args=(state, config, pool), rounds=1
    )
    _record(benchmark, report)
    assert report.sent == config.n_requests
    assert report.ok > 0
    assert report.errors == 0


def test_serve_burst_load(benchmark, serving):
    """Bursty 40 qps mean (4x hot halves): shed, don't stretch."""
    state, pool = serving
    config = LoadConfig(
        qps=40, duration_s=5, profile="burst", burst_factor=4,
        ttl=3, seed=1,
    )
    report = benchmark.pedantic(
        _drive, args=(state, config, pool), rounds=1
    )
    _record(benchmark, report)
    assert report.sent == config.n_requests
    # Every offered request is accounted for: served, shed, timed out,
    # unanswered or failed.
    assert (
        report.ok + report.shed + report.timeouts + report.unanswered
        + report.errors == report.sent
    )
    assert report.ok > 0
