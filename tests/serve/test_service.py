"""The micro-batching dispatcher: parity, shedding, deadlines, drain.

The golden tests are the heart of the serving story: whatever the
dispatcher does — concatenating jobs, grouping by parameters, slicing
columns back — the reply for each request must be *bitwise* the dict a
direct single-request engine call encodes to.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.protocol import (
    FloodProbeRequest,
    ResolvabilityRequest,
    encode_outcome,
)
from repro.serve.service import (
    Overloaded,
    QueryService,
    ServiceClosed,
    ServicePolicy,
)
from repro.serve.state import ServiceState

from tests.serve.conftest import direct_reply, make_search


def _run(coro):
    return asyncio.run(coro)


async def _with_service(state, policy, scenario):
    service = QueryService(state, policy)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop(drain_timeout_s=10.0)


class _Gate:
    """Blocks the engine thread until released (forces queue buildup)."""

    def __init__(self, service: QueryService) -> None:
        self._event = threading.Event()
        self._inner = service._execute
        service._execute = self._execute  # type: ignore[method-assign]

    def _execute(self, jobs):
        self._event.wait(timeout=30)
        return self._inner(jobs)

    def open(self) -> None:
        self._event.set()


class TestPolicyValidation:
    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            ServicePolicy(max_queue=0)
        with pytest.raises(ValueError):
            ServicePolicy(max_batch=0)
        with pytest.raises(ValueError):
            ServicePolicy(default_timeout_s=0)


class TestGoldenParity:
    def test_single_request_matches_direct_call(self, serve_state, query_pool):
        request = make_search(
            query_pool, sources=(2, 9, 40), picks=(0, 3, 5),
            ttl_schedule=(3,),
        )

        async def scenario(service):
            return await service.submit(request)

        status, body = _run(
            _with_service(serve_state, ServicePolicy(), scenario)
        )
        assert status == 200
        assert body == direct_reply(serve_state, request)

    def test_micro_batched_round_matches_direct_calls(
        self, serve_state, query_pool
    ):
        # Mixed parameters in one dispatch round: two requests share a
        # schedule (one engine call, sliced back), the others differ in
        # schedule or min_results (separate groups).  Every reply must
        # equal its own direct evaluation.
        requests = [
            make_search(query_pool, sources=(1, 2), picks=(0, 1)),
            make_search(query_pool, sources=(3,), picks=(2,)),
            make_search(
                query_pool, sources=(4, 5), picks=(3, 4),
                ttl_schedule=(1, 3),
            ),
            make_search(
                query_pool, sources=(6,), picks=(5,), min_results=3
            ),
            make_search(query_pool, sources=(7,), picks=(0,)),
        ]

        async def scenario(service):
            gate = _Gate(service)
            # Park a sacrificial job on the engine thread so the real
            # requests pile up and dispatch as one round.
            blocker = service.submit(
                make_search(query_pool, sources=(0,), picks=(0,))
            )
            await asyncio.sleep(0.05)
            futures = [service.submit(r) for r in requests]
            gate.open()
            await blocker
            return await asyncio.gather(*futures)

        replies = _run(
            _with_service(serve_state, ServicePolicy(), scenario)
        )
        for request, (status, body) in zip(requests, replies):
            assert status == 200
            assert body == direct_reply(serve_state, request)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_engine_fan_out_reads_the_published_segments(
        self, serve_topology, small_content, query_pool, n_shards
    ):
        # --engine-workers > 1: pmap workers attach the state's topology
        # and its posting shards instead of re-publishing.
        request = make_search(
            query_pool,
            sources=tuple(range(0, 48, 2)),
            picks=tuple(i % len(query_pool) for i in range(24)),
            ttl_schedule=(1, 3),
        )
        keys = [small_content.query_key(list(q)) for q in request.queries]
        sources = np.asarray(request.sources, dtype=np.int64)
        with ServiceState(
            serve_topology, small_content, n_shards=n_shards, engine_workers=2
        ) as state:
            fanned = state.engine.evaluate_keys(
                sources, keys, ttl_schedule=(1, 3), n_workers=2
            )
            assert encode_outcome(fanned) == direct_reply(state, request)

    def test_resolvability_and_flood_probe(self, serve_state):
        # A single indexed term is resolvable by construction; an
        # out-of-vocabulary term never is.
        known = serve_state.content.term_index.term_string(0)
        resolvability = ResolvabilityRequest(
            queries=((known,), ("zz-no-such-term-zz",)),
            timeout_s=None,
        )
        probe = FloodProbeRequest(source=5, ttl=2, timeout_s=None)

        async def scenario(service):
            return await asyncio.gather(
                service.submit(resolvability), service.submit(probe)
            )

        (rs, rbody), (ps, pbody) = _run(
            _with_service(serve_state, ServicePolicy(), scenario)
        )
        assert rs == 200
        assert rbody == serve_state.resolvability(resolvability.queries)
        assert rbody["resolvable"][0] is True
        assert rbody["resolvable"][1] is False
        assert ps == 200
        assert pbody == serve_state.flood_probe(5, 2)
        assert 0 < pbody["peers_reached"] <= serve_state.n_nodes


class TestAdmissionControl:
    def test_queue_full_sheds_with_retry_hint(self, serve_state, query_pool):
        policy = ServicePolicy(max_queue=2, max_batch=1, retry_after_s=0.25)
        request = make_search(query_pool, sources=(1,), picks=(0,))

        async def scenario(service):
            gate = _Gate(service)
            running = service.submit(request)
            await asyncio.sleep(0.05)  # dispatcher now blocked in-engine
            queued = [service.submit(request) for _ in range(2)]
            with pytest.raises(Overloaded) as excinfo:
                service.submit(request)
            gate.open()
            statuses = [
                s for s, _ in await asyncio.gather(running, *queued)
            ]
            return excinfo.value.retry_after_s, statuses

        retry_after, statuses = _run(
            _with_service(serve_state, policy, scenario)
        )
        # Shed requests cost nothing; admitted ones all complete.
        assert retry_after == 0.25
        assert statuses == [200, 200, 200]

    def test_expired_deadline_resolves_504_without_engine_work(
        self, serve_state, query_pool
    ):
        policy = ServicePolicy(max_batch=1)

        async def scenario(service):
            gate = _Gate(service)
            blocker = service.submit(
                make_search(query_pool, sources=(0,), picks=(0,))
            )
            await asyncio.sleep(0.05)
            doomed = service.submit(
                make_search(
                    query_pool, sources=(1,), picks=(1,), timeout_s=0.05
                )
            )
            await asyncio.sleep(0.2)  # deadline passes while queued
            gate.open()
            await blocker
            return await doomed

        status, body = _run(_with_service(serve_state, policy, scenario))
        assert status == 504
        assert "deadline" in body["error"]

    def test_submit_after_stop_raises_closed(self, serve_state, query_pool):
        request = make_search(query_pool, sources=(1,), picks=(0,))

        async def scenario():
            service = QueryService(serve_state, ServicePolicy())
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosed):
                service.submit(request)

        _run(scenario())

    def test_stop_drains_admitted_jobs(self, serve_state, query_pool):
        request = make_search(query_pool, sources=(1,), picks=(0,))

        async def scenario():
            service = QueryService(serve_state, ServicePolicy())
            await service.start()
            futures = [service.submit(request) for _ in range(5)]
            await service.stop(drain_timeout_s=10.0)
            return await asyncio.gather(*futures)

        replies = _run(scenario())
        assert [status for status, _ in replies] == [200] * 5
