"""Asyncio client for the overlay query service.

:class:`ServiceClient` keeps a small pool of keep-alive connections so
the load driver's concurrent in-flight requests don't pay a TCP
handshake each (nor exhaust ephemeral ports at high QPS).  Connections
are created on demand, parked when idle, and dropped on any framing or
transport error — the next request simply dials again.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.serve.http import (
    HttpError,
    HttpResponse,
    json_bytes,
    read_response,
    render_request,
)

__all__ = ["ServiceClient"]

_Conn = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ServiceClient:
    """Pooled keep-alive HTTP client for one service endpoint."""

    def __init__(self, host: str, port: int, *, max_idle: int = 32) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self._idle: list[_Conn] = []
        self._closed = False

    async def request(
        self, method: str, path: str, payload: Any | None = None
    ) -> HttpResponse:
        """One request/response exchange; raises ``OSError``-family on
        transport failure and :class:`~repro.serve.http.HttpError` on
        bad framing."""
        if self._closed:
            raise RuntimeError("client is closed")
        body = b"" if payload is None else json_bytes(payload)
        conn = await self._acquire()
        reader, writer = conn
        try:
            writer.write(
                render_request(method, path, body, host=self.host)
            )
            await writer.drain()
            response = await read_response(reader)
        except (OSError, EOFError, HttpError, asyncio.CancelledError):
            # Any transport/framing failure (or a cancelled deadline)
            # leaves the connection in an unknown framing state: drop
            # it rather than park it.
            self._discard(conn)
            raise
        if response.headers.get("connection", "").lower() == "close":
            self._discard(conn)
        else:
            self._release(conn)
        return response

    async def get(self, path: str) -> HttpResponse:
        """Convenience ``GET``."""
        return await self.request("GET", path)

    async def post(self, path: str, payload: Any) -> HttpResponse:
        """Convenience ``POST`` with a JSON body."""
        return await self.request("POST", path, payload)

    async def _acquire(self) -> _Conn:
        if self._idle:
            return self._idle.pop()
        return await asyncio.open_connection(self.host, self.port)

    def _release(self, conn: _Conn) -> None:
        if self._closed or len(self._idle) >= self.max_idle:
            self._discard(conn)
        else:
            self._idle.append(conn)

    @staticmethod
    def _discard(conn: _Conn) -> None:
        conn[1].close()

    async def close(self) -> None:
        """Close every parked connection."""
        self._closed = True
        idle, self._idle = self._idle, []
        for reader, writer in idle:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
