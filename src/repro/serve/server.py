"""The asyncio HTTP server wrapping one :class:`QueryService`.

Routes::

    POST /search         batched overlay search (flood / expanding ring)
    POST /resolvability  topology-free oracle resolvability
    POST /flood-probe    reach + message cost of one flood
    GET  /healthz        liveness + resident-state summary
    GET  /metrics        the process metrics registry as JSON, with the
                         cache byte gauges set at scrape time

Lifecycle: :meth:`OverlayQueryServer.run` installs SIGTERM/SIGINT
handlers on the loop, serves until one fires (or :meth:`request_stop`
is called), then drains — stop accepting, finish admitted jobs, and
only then return.  The process owns no shared-memory segment, so a
signal that arrives before the loop runs (during the artifact build)
needs no handler: the default disposition leaves nothing behind.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Awaitable, Callable

from repro.obs import get_logger, metrics
from repro.serve.http import (
    HttpError,
    HttpRequest,
    MAX_HEAD_BYTES,
    json_bytes,
    read_request,
    render_response,
)
from repro.serve.protocol import (
    ProtocolError,
    parse_flood_probe,
    parse_resolvability,
    parse_search,
)
from repro.serve.service import (
    Overloaded,
    QueryService,
    ServiceClosed,
    ServicePolicy,
)
from repro.serve.state import ServiceState

__all__ = ["OverlayQueryServer"]

_LOG = get_logger(__name__)


def _error_body(message: str) -> bytes:
    return json_bytes({"error": message})


class OverlayQueryServer:
    """One listening socket in front of one resident service state."""

    def __init__(
        self,
        state: ServiceState,
        *,
        policy: ServicePolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = state
        self.service = QueryService(state, policy)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` becomes the bound port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stop_event = asyncio.Event()
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_HEAD_BYTES
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        _LOG.info("serving on http://%s:%d", self.host, self.port)

    def request_stop(self) -> None:
        """Begin graceful shutdown (idempotent, signal-handler safe)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def shutdown(self, *, drain_timeout_s: float = 30.0) -> None:
        """Stop accepting, drain the service, release the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain_timeout_s=drain_timeout_s)

    async def run(
        self,
        *,
        handle_signals: bool = True,
        drain_timeout_s: float = 30.0,
        ready: Callable[["OverlayQueryServer"], None] | None = None,
    ) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`), drain, return."""
        await self.start()
        assert self._stop_event is not None
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if handle_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    break  # non-main thread or unsupported platform
        if ready is not None:
            ready(self)
        try:
            await self._stop_event.wait()
            _LOG.info("stop requested; draining")
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.shutdown(drain_timeout_s=drain_timeout_s)

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            _error_body(exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                payload = await self._dispatch(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        """Route one request to its handler; always returns a response."""
        metrics().inc("serve.http.requests")
        handler = self._route(request.method, request.path)
        if handler is None:
            known = {"/search", "/resolvability", "/flood-probe",
                     "/healthz", "/metrics"}
            status = 405 if request.path in known else 404
            return render_response(
                status, _error_body(f"no route {request.method} {request.path}")
            )
        try:
            return await handler(request)
        except ProtocolError as exc:
            return render_response(400, _error_body(str(exc)))
        except HttpError as exc:
            return render_response(exc.status, _error_body(exc.message))
        except Overloaded as exc:
            return render_response(
                429,
                _error_body("admission queue full"),
                extra_headers=(("Retry-After", f"{exc.retry_after_s:g}"),),
            )
        except ServiceClosed:
            return render_response(503, _error_body("service is draining"))

    def _route(
        self, method: str, path: str
    ) -> Callable[[HttpRequest], Awaitable[bytes]] | None:
        routes: dict[
            tuple[str, str], Callable[[HttpRequest], Awaitable[bytes]]
        ] = {
            ("POST", "/search"): self._handle_search,
            ("POST", "/resolvability"): self._handle_resolvability,
            ("POST", "/flood-probe"): self._handle_flood_probe,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
        }
        return routes.get((method, path))

    async def _submit(self, parsed: object) -> bytes:
        future = self.service.submit(parsed)  # type: ignore[arg-type]
        status, body = await future
        return render_response(status, json_bytes(body))

    async def _handle_search(self, request: HttpRequest) -> bytes:
        return await self._submit(
            parse_search(request.json(), n_nodes=self.state.n_nodes)
        )

    async def _handle_resolvability(self, request: HttpRequest) -> bytes:
        return await self._submit(parse_resolvability(request.json()))

    async def _handle_flood_probe(self, request: HttpRequest) -> bytes:
        return await self._submit(
            parse_flood_probe(request.json(), n_nodes=self.state.n_nodes)
        )

    async def _handle_healthz(self, request: HttpRequest) -> bytes:
        body = {
            "status": "draining" if self.service.closing else "ok",
            "n_nodes": self.state.n_nodes,
            "n_terms": self.state.n_terms,
            "queue_depth": self.service.queue_depth,
        }
        return render_response(200, json_bytes(body))

    async def _handle_metrics(self, request: HttpRequest) -> bytes:
        # Set at scrape time: a pmap worker's delta would overwrite a
        # gauge set earlier (``MetricsRegistry.merge``).
        registry = metrics()
        for name, nbytes in self.state.cache_bytes().items():
            registry.gauge(name, nbytes)
        snapshot = registry.snapshot().as_dict()
        return render_response(200, json_bytes(snapshot))
