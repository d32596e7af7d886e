"""Request streams of the serve workloads, built from the benchmark seed.

Sources, query choices and arrival offsets come from the program's own
generators (``repro.serve.load``), but every stream gets its own seed
derived from the benchmark's ``--seed``; the fixture (topology, trace,
query vocabulary) is always the seed-0 one that ``repro serve`` loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from common import FIXTURE_SEED, N_NODES, Workload, phase_seed
from driver import render_post


@dataclass(frozen=True)
class Stream:
    """One phase's requests: wire bytes plus the rows they carry."""

    requests: list[bytes]
    offsets: list[float]
    #: ``(n_requests, batch)`` source peer per row.
    sources: np.ndarray
    #: ``(n_requests, batch)`` query-pool index per row.
    picks: np.ndarray

    def chunks(self, k: int) -> list[tuple[list[bytes], list[float]]]:
        """``k`` consecutive slices, each with offsets from its own start."""
        bounds = np.linspace(0, len(self.requests), k + 1).round().astype(int)
        out = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            base = self.offsets[lo]
            out.append(
                (self.requests[lo:hi], [off - base for off in self.offsets[lo:hi]])
            )
        return out


def fill_cache() -> None:
    """Load (building on a miss) every artifact a run reads.

    Runs before any timed phase, so every timed start-up loads through
    the memory-mapped blob path a restarted service takes.
    """
    from repro.core.experiment import (
        Fig8TopologyConfig,
        build_content_index,
        build_fig8_topology,
        build_trace_bundle,
    )
    from repro.tracegen.gnutella_trace import GnutellaTraceConfig

    build_fig8_topology(Fig8TopologyConfig(n_nodes=N_NODES, seed=FIXTURE_SEED))
    bundle = build_trace_bundle(
        trace_config=GnutellaTraceConfig(n_peers=N_NODES, seed=FIXTURE_SEED)
    )
    build_content_index(bundle.trace)
    build_fig8_topology(Fig8TopologyConfig())
    build_trace_bundle()


class Fixture:
    """The served fixture as the benchmark process sees it."""

    def __init__(self) -> None:
        from repro.core.experiment import (
            Fig8TopologyConfig,
            build_content_index,
            build_fig8_topology,
            build_trace_bundle,
        )
        from repro.tracegen.gnutella_trace import GnutellaTraceConfig

        self.topology = build_fig8_topology(
            Fig8TopologyConfig(n_nodes=N_NODES, seed=FIXTURE_SEED)
        )
        bundle = build_trace_bundle(
            trace_config=GnutellaTraceConfig(n_peers=N_NODES, seed=FIXTURE_SEED)
        )
        self.workload = bundle.workload
        self.content = build_content_index(bundle.trace)
        self._pools: dict[int, list[list[str]]] = {}

    def pool(self, size: int) -> list[list[str]]:
        """The first ``size`` distinct workload queries."""
        if size not in self._pools:
            from repro.serve.load import build_query_pool

            self._pools[size] = build_query_pool(self.workload, size)
        return self._pools[size]


def build_stream(
    fixture: Fixture,
    workload: Workload,
    seed: int,
    phase: str,
    *,
    qps: float,
    n_requests: int,
    batch: int | None = None,
) -> Stream:
    """``n_requests`` requests at ``qps``, uniform arrivals."""
    from repro.serve.load import (
        LoadConfig,
        arrival_offsets,
        sample_query_indices,
        sample_sources,
    )

    rows_per = batch or workload.batch
    pool = fixture.pool(workload.pool)
    config = LoadConfig(
        qps=qps,
        duration_s=n_requests / qps,
        profile="uniform",
        zipf_exponent=0.9,
        pool_size=workload.pool,
        batch_size=rows_per,
        seed=phase_seed(seed, phase),
    )
    rows = n_requests * rows_per
    picks = sample_query_indices(config, rows, len(pool)).reshape(n_requests, rows_per)
    sources = sample_sources(config, rows, N_NODES).reshape(n_requests, rows_per)
    offsets = arrival_offsets(config)[:n_requests].tolist()
    schedule = (
        {"ttl": workload.ttl_schedule[0]}
        if len(workload.ttl_schedule) == 1
        else {"ttl_schedule": list(workload.ttl_schedule)}
    )
    requests = []
    for src_row, pick_row in zip(sources, picks):
        body = {
            "sources": [int(s) for s in src_row],
            "queries": [pool[int(p)] for p in pick_row],
            **schedule,
            "min_results": 1,
            "timeout_s": 5.0,
        }
        requests.append(
            render_post("/search", json.dumps(body, separators=(",", ":")).encode())
        )
    return Stream(requests=requests, offsets=offsets, sources=sources, picks=picks)
