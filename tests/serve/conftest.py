"""Fixtures for the serving layer: one resident state per package.

The state holds the index and the engine resident, exactly like a real
server process; building it once per test package keeps the suite fast
while its caches warm across tests as they do across requests.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.overlay.content import SharedContentIndex
from repro.overlay.topology import Topology, flat_random
from repro.serve.load import build_query_pool
from repro.serve.protocol import SearchRequest, encode_outcome
from repro.serve.service import QueryService
from repro.serve.state import ServiceState
from repro.tracegen.query_trace import QueryWorkload


@pytest.fixture(scope="package")
def serve_topology(small_content: SharedContentIndex) -> Topology:
    """Overlay sized to the fixture trace (engine requires the match)."""
    return flat_random(small_content.n_peers, 6.0, seed=7)


@pytest.fixture(scope="package")
def serve_state(
    serve_topology: Topology, small_content: SharedContentIndex
):
    with ServiceState(serve_topology, small_content) as state:
        yield state


@pytest.fixture(scope="package")
def query_pool(small_workload: QueryWorkload) -> list[list[str]]:
    """Real workload queries (so posting lists are non-trivial)."""
    return build_query_pool(small_workload, 16)


def make_search(
    pool: list[list[str]],
    *,
    sources: tuple[int, ...],
    picks: tuple[int, ...],
    ttl_schedule: tuple[int, ...] = (3,),
    min_results: int = 1,
    timeout_s: float | None = None,
) -> SearchRequest:
    """Build a validated request straight from the query pool."""
    return SearchRequest(
        sources=sources,
        queries=tuple(tuple(pool[p]) for p in picks),
        ttl_schedule=ttl_schedule,
        min_results=min_results,
        timeout_s=timeout_s,
    )


def direct_reply(state: ServiceState, request: SearchRequest) -> dict:
    """The golden answer: one engine call per request, no batching."""
    keys = [state.content.query_key(list(q)) for q in request.queries]
    outcome = state.engine.evaluate_keys(
        np.asarray(request.sources, dtype=np.int64),
        keys,
        ttl_schedule=request.ttl_schedule,
        min_results=request.min_results,
    )
    return encode_outcome(outcome)


class Gate:
    """Holds the dispatcher after it takes a job, until opened.

    Wraps the service queue's ``get``: the job it returns waits on an
    event, so later submissions pile up behind it and drain into the
    same round once the gate opens.  A dispatcher already waiting in
    ``get`` takes its next job ungated.
    """

    def __init__(self, service: QueryService) -> None:
        self._event = asyncio.Event()
        queue = service._queue
        get = queue.get

        async def gated_get():
            job = await get()
            await self._event.wait()
            return job

        queue.get = gated_get  # type: ignore[method-assign]

    def open(self) -> None:
        self._event.set()
