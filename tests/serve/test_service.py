"""The micro-batching dispatcher: parity, shedding, deadlines, drain.

The golden tests are the heart of the serving story: whatever the
dispatcher does — concatenating jobs, grouping by parameters, slicing
columns back — the reply for each request must be *bitwise* the dict a
direct single-request engine call encodes to.
"""

from __future__ import annotations

import asyncio
import gc
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.obs import metrics
from repro.overlay.topology import flat_random
from repro.serve.http import json_bytes, render_request
from repro.serve.protocol import (
    MAX_QUERIES_PER_REQUEST,
    FloodProbeRequest,
    ResolvabilityRequest,
    encode_outcome,
)
import repro.serve.server as server_mod
from repro.serve.server import OverlayQueryServer
from repro.serve.service import (
    Overloaded,
    QueryService,
    ServiceClosed,
    ServicePolicy,
)
from repro.serve.state import ServiceState

from tests.serve.conftest import Gate, direct_reply, make_search


def _run(coro):
    return asyncio.run(coro)


async def _with_service(state, policy, scenario):
    service = QueryService(state, policy)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop(drain_timeout_s=10.0)


class TestPolicyValidation:
    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            ServicePolicy(max_queue=0)
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
            gate = Gate(service)
            # Hold the dispatcher on a sacrificial job so the real
            # requests pile up and dispatch in its round.
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


class TestServiceState:
    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem required"
    )
    def test_failed_construction_closes_what_it_published(self, small_content):
        # The engine refuses a topology one node larger than the trace,
        # after both owners are published: the state must close them
        # itself, not leave them to the garbage-collection net.
        topology = flat_random(small_content.n_peers + 1, 6.0, seed=7)
        before = metrics().counter("shm.unclosed_owners")
        segments = set(os.listdir("/dev/shm"))
        with pytest.raises(ValueError, match="peers") as excinfo:
            ServiceState(topology, small_content)
        # The traceback still reaches the half-built state, so only an
        # explicit close can have unlinked its segments by now.
        assert set(os.listdir("/dev/shm")) == segments
        del excinfo
        gc.collect()
        assert metrics().counter("shm.unclosed_owners") == before


class TestAdmissionControl:
    def test_queue_full_sheds_with_retry_hint(self, serve_state, query_pool):
        policy = ServicePolicy(max_queue=2, retry_after_s=0.25)
        request = make_search(query_pool, sources=(1,), picks=(0,))

        async def scenario(service):
            gate = Gate(service)
            running = service.submit(request)
            await asyncio.sleep(0.05)  # dispatcher now held by the gate
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
        policy = ServicePolicy()

        async def scenario(service):
            gate = Gate(service)
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

    def test_drain_timeout_still_resolves_every_admitted_job(
        self, serve_state, query_pool
    ):
        # The drain gives up while a round is evaluating.  The round
        # runs inline with no await inside it, so it completes before
        # the dispatcher can be cancelled and no future is left pending.
        request = make_search(query_pool, sources=(1,), picks=(0,))

        async def scenario():
            service = QueryService(serve_state, ServicePolicy())
            await service.start()
            execute = service._execute

            def slow_execute(jobs):
                time.sleep(0.3)
                return execute(jobs)

            service._execute = slow_execute  # type: ignore[method-assign]
            futures = [service.submit(request) for _ in range(3)]
            await service.stop(drain_timeout_s=0.05)
            return futures

        futures = _run(scenario())
        assert all(future.done() for future in futures)
        assert [future.result()[0] for future in futures] == [200] * 3

    def test_engine_fault_is_500_and_the_next_round_recovers(
        self, serve_state, query_pool
    ):
        request = make_search(query_pool, sources=(4, 9), picks=(1, 2))

        async def scenario(service):
            execute = service._execute
            calls: list[int] = []

            def faulty_execute(jobs):
                calls.append(len(jobs))
                if len(calls) == 1:
                    raise RuntimeError("injected engine fault")
                return execute(jobs)

            service._execute = faulty_execute  # type: ignore[method-assign]
            failed = await asyncio.gather(
                service.submit(request), service.submit(request)
            )
            return calls, failed, await service.submit(request)

        calls, failed, (status, body) = _run(
            _with_service(serve_state, ServicePolicy(), scenario)
        )
        assert calls == [2, 1]
        assert [s for s, _ in failed] == [500, 500]
        assert all("internal" in b["error"] for _, b in failed)
        assert status == 200
        assert body == direct_reply(serve_state, request)


def _read_status(sock: socket.socket) -> int:
    """Status code of the next response on a blocking socket."""
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = sock.recv(65536)
        if not chunk:
            break
        head += chunk
    return int(head.split(b" ", 2)[1])


class TestRoundFairness:
    def test_requests_read_during_a_round_join_the_next_one(
        self, serve_state, query_pool, monkeypatch
    ):
        """Rows bound a round; requests that arrive during it form the next.

        K keep-alive connections sit in ``read_request`` while a
        512-row job fills round 1 and J small jobs queue behind it.  A
        helper thread sends the K requests while round 1 runs.  The
        dispatcher's yields after the round let the loop read, parse
        and submit all K before it drains again, so round 2 holds
        J + K jobs.
        """
        k, j = 4, 3
        rows = MAX_QUERIES_PER_REQUEST
        big = make_search(query_pool, sources=(0,) * rows, picks=(0,) * rows)
        small = make_search(query_pool, sources=(1,), picks=(0,))
        wire = render_request(
            "POST", "/search",
            json_bytes({"sources": [2], "queries": [list(query_pool[1])]}),
        )
        rounds: list[int] = []
        round_started = threading.Event()
        sent = threading.Event()
        statuses: list[int] = []
        parked = 0
        read_request = server_mod.read_request

        async def counting_read_request(reader, **kwargs):
            nonlocal parked
            parked += 1
            return await read_request(reader, **kwargs)

        monkeypatch.setattr(server_mod, "read_request", counting_read_request)

        async def until_parked() -> None:
            while parked < k:
                await asyncio.sleep(0.01)

        def client(socks: list[socket.socket]) -> None:
            round_started.wait(timeout=30)
            for sock in socks:
                sock.sendall(wire)
            sent.set()
            statuses.extend(_read_status(sock) for sock in socks)

        async def scenario():
            server = OverlayQueryServer(serve_state)
            await server.start()
            service = server.service
            execute = service._execute

            def recording_execute(jobs):
                rounds.append(len(jobs))
                if len(rounds) == 1:
                    round_started.set()
                    sent.wait(timeout=30)
                return execute(jobs)

            service._execute = recording_execute  # type: ignore[method-assign]
            socks = [
                socket.create_connection((server.host, server.port), timeout=30)
                for _ in range(k)
            ]
            helper = threading.Thread(target=client, args=(socks,))
            try:
                await asyncio.wait_for(until_parked(), 30)
                helper.start()
                futures = [service.submit(big)]
                futures += [service.submit(small) for _ in range(j)]
                replies = await asyncio.gather(*futures)
                await asyncio.to_thread(helper.join, 30)
                return replies, helper.is_alive()
            finally:
                for sock in socks:
                    sock.close()
                await server.shutdown(drain_timeout_s=10.0)

        replies, helper_alive = _run(scenario())
        assert not helper_alive
        assert [status for status, _ in replies] == [200] * (1 + j)
        assert statuses == [200] * k
        assert rounds == [1, j + k]
