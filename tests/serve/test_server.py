"""End-to-end HTTP tests: real sockets, real framing, real drain.

The parity assertions here are the strongest in the suite: the dict a
client decodes off the wire must equal the dict a direct engine call
encodes — socket, framing, queue, micro-batcher and all.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.tokenize import tokenize_name
from repro.obs import metrics
from repro.overlay.content import SharedContentIndex
from repro.serve.client import ServiceClient
from repro.serve.http import HttpError
from repro.serve.server import OverlayQueryServer
from repro.serve.service import ServicePolicy
from repro.serve.state import ServiceState

from tests.serve.conftest import Gate, direct_reply, make_search


def _run(coro):
    return asyncio.run(coro)


async def _with_server(state, scenario, *, policy=None):
    server = OverlayQueryServer(state, policy=policy)
    await server.start()
    client = ServiceClient(server.host, server.port)
    try:
        return await scenario(server, client)
    finally:
        await client.close()
        await server.shutdown(drain_timeout_s=10.0)


async def _until(condition, timeout_s: float = 10.0) -> None:
    """Yield to the loop until ``condition()`` holds (or fail)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not condition():
        assert loop.time() < deadline, "condition not reached in time"
        await asyncio.sleep(0.005)


def _request_body(request) -> dict:
    body = {
        "sources": list(request.sources),
        "queries": [list(q) for q in request.queries],
        "ttl_schedule": list(request.ttl_schedule),
        "min_results": request.min_results,
    }
    if request.timeout_s is not None:
        body["timeout_s"] = request.timeout_s
    return body


class TestRoutes:
    def test_healthz_reports_resident_state(self, serve_state):
        async def scenario(server, client):
            return (await client.get("/healthz")).json()

        doc = _run(_with_server(serve_state, scenario))
        assert doc["status"] == "ok"
        assert doc["n_nodes"] == serve_state.n_nodes
        assert doc["n_terms"] == serve_state.n_terms
        assert doc["queue_depth"] == 0

    def test_search_over_the_wire_is_bitwise_direct(
        self, serve_state, query_pool
    ):
        request = make_search(
            query_pool, sources=(5, 17, 60), picks=(1, 2, 6),
            ttl_schedule=(1, 3),
        )

        async def scenario(server, client):
            response = await client.post("/search", _request_body(request))
            return response.status, response.json()

        status, body = _run(_with_server(serve_state, scenario))
        assert status == 200
        assert body == direct_reply(serve_state, request)

    def test_resolvability_and_flood_probe_routes(self, serve_state):
        known = serve_state.content.term_index.term_string(0)

        async def scenario(server, client):
            res = await client.post("/resolvability", {"queries": [[known]]})
            probe = await client.post("/flood-probe", {"source": 3, "ttl": 2})
            return res.json(), probe.json()

        res, probe = _run(_with_server(serve_state, scenario))
        assert res == serve_state.resolvability(((known,),))
        assert probe == serve_state.flood_probe(3, 2)

    def test_metrics_counts_requests(self, serve_state):
        async def scenario(server, client):
            await client.get("/healthz")
            return (await client.get("/metrics")).json()

        doc = _run(_with_server(serve_state, scenario))
        assert doc["counters"]["serve.http.requests"] >= 1

    def test_metrics_reports_cache_bytes(
        self, serve_topology, small_trace, query_pool
    ):
        # A private index, so its match cache holds only this server's rows.
        content = SharedContentIndex(small_trace)
        # Single-term rows slice the index's postings and own no bytes;
        # two terms cut from a shared name match, and their row is a
        # copy of the kernel's survivors that the cache owns.
        names = (
            tokenize_name(small_trace.names.lookup(int(i)))
            for i in small_trace.name_ids
        )
        terms = next(list(dict.fromkeys(t))[:2] for t in names if len(set(t)) > 1)
        pool = [*query_pool, terms]
        request = make_search(
            pool, sources=(4, 30, 77, 90, 5), picks=(0, 1, 2, 7, len(pool) - 1),
            ttl_schedule=(1, 3),
        )

        async def scenario(server, client):
            await client.post("/search", _request_body(request))
            return (await client.get("/metrics")).json()

        with ServiceState(serve_topology, content) as state:
            gauges = _run(_with_server(state, scenario))["gauges"]
            entries = state.engine.flood_cache._entries.values()
            flood_bytes = sum(
                e.depth.nbytes + e.cum_messages.nbytes + e.cum_reached.nbytes
                for e in entries
            )
        match_bytes = sum(
            row.nbytes
            for row in content._match_cache.values()
            if row.base is None
        )
        assert match_bytes > 0 and flood_bytes > 0
        assert gauges["match.cache.bytes"] == match_bytes
        assert gauges["flood.cache.bytes"] == flood_bytes


class TestErrorPaths:
    def test_protocol_error_is_400(self, serve_state):
        async def scenario(server, client):
            response = await client.post(
                "/search",
                {"sources": [serve_state.n_nodes], "queries": [["x"]]},
            )
            return response.status, response.json()

        status, body = _run(_with_server(serve_state, scenario))
        assert status == 400
        assert "outside" in body["error"]

    def test_invalid_json_is_400(self, serve_state):
        async def scenario(server, client):
            response = await client.request("POST", "/search", ["not a dict"])
            return response.status

        assert _run(_with_server(serve_state, scenario)) == 400

    def test_unknown_path_404_wrong_method_405(self, serve_state):
        async def scenario(server, client):
            missing = await client.get("/nope")
            wrong = await client.get("/search")
            return missing.status, wrong.status

        assert _run(_with_server(serve_state, scenario)) == (404, 405)

    def test_keep_alive_survives_an_error_response(self, serve_state):
        # A 404 must not poison the connection for the next request.
        async def scenario(server, client):
            await client.get("/nope")
            return (await client.get("/healthz")).status

        assert _run(_with_server(serve_state, scenario)) == 200


class TestLifecycle:
    def test_run_serves_until_stop_then_drains(self, serve_state, query_pool):
        request = make_search(query_pool, sources=(2,), picks=(0,))

        async def scenario():
            server = OverlayQueryServer(serve_state)
            ready = asyncio.Event()
            runner = asyncio.create_task(
                server.run(
                    handle_signals=False,
                    drain_timeout_s=10.0,
                    ready=lambda s: ready.set(),
                )
            )
            await ready.wait()
            async with ServiceClient(server.host, server.port) as client:
                response = await client.post(
                    "/search", _request_body(request)
                )
                status = response.status
            server.request_stop()
            await asyncio.wait_for(runner, timeout=30)
            return status

        assert _run(scenario()) == 200

    def test_after_shutdown_the_socket_is_released(self, serve_state):
        async def scenario():
            server = OverlayQueryServer(serve_state)
            await server.start()
            port = server.port
            await server.shutdown(drain_timeout_s=10.0)
            try:
                await asyncio.open_connection(server.host, port)
            except OSError:
                return True
            return False

        assert _run(scenario()) is True


class TestDisconnect:
    def test_client_gone_mid_dispatch_leaks_nothing(
        self, serve_state, query_pool
    ):
        request = make_search(
            query_pool, sources=(3, 41), picks=(2, 5), ttl_schedule=(1, 3)
        )
        body = json.dumps(_request_body(request)).encode()
        head = (
            "POST /search HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()

        async def scenario():
            server = OverlayQueryServer(serve_state)
            # Gated before start, so the dispatcher's first job waits.
            gate = Gate(server.service)
            await server.start()
            registry = metrics()
            admitted = registry.counter("serve.admitted")
            replied = registry.counter("serve.replies.200")
            _, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(head + body)
            await writer.drain()
            await _until(lambda: registry.counter("serve.admitted") > admitted)
            writer.close()
            await writer.wait_closed()
            gate.open()
            await _until(
                lambda: registry.counter("serve.replies.200") > replied
            )
            for _ in range(5):
                await asyncio.sleep(0)
            moved = registry.counter("serve.replies.200") - replied
            depth = server.service.queue_depth
            async with ServiceClient(server.host, server.port) as client:
                response = await client.post("/search", _request_body(request))
            await server.shutdown(drain_timeout_s=10.0)
            current = asyncio.current_task()
            await _until(lambda: asyncio.all_tasks() == {current})
            return moved, depth, response.status, response.json()

        moved, depth, status, reply = _run(scenario())
        assert moved == 1
        assert depth == 0
        assert status == 200
        assert reply == direct_reply(serve_state, request)


class TestClient:
    def test_unanswered_request_raises_and_drops_the_connection(self):
        # A peer that reads the request and hangs up: the client must
        # surface a transport or framing error and not park the socket.
        async def hang_up(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.close()

        async def scenario():
            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port)
            try:
                with pytest.raises((HttpError, OSError)):
                    await client.get("/healthz")
                return len(client._idle)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert _run(scenario()) == 0
