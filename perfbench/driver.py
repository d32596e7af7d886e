"""Open-loop HTTP load driver, benchmark-owned.

One process, one event loop, at most ``nproc`` keep-alive connections.
Arrival times are precomputed; each request is timed from the moment it
was *due*, so a stall that delays later sends shows up in their
latency instead of hiding in the driver.  When every connection is
busy, due requests wait in the driver (the backlog), which is what an
open-loop client in front of a saturated service sees.

The HTTP client here is deliberately not the program's own
(``repro.serve.client``): the measuring side stays identical across
commits of the program.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
from dataclasses import dataclass, field
from typing import Any, Coroutine, TypeVar

T = TypeVar("T")

def run(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` on an event loop whose timers keep sub-millisecond time.

    The default epoll selector rounds every wait up to a whole
    millisecond, which would send each request up to 1 ms late; select()
    takes the timeout as given, and the driver watches only a few
    sockets.
    """
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
    ) as runner:
        return runner.run(coro)


def max_connections() -> int:
    """Connection cap of the driver: one per CPU."""
    return max(1, os.cpu_count() or 1)


def render_post(path: str, body: bytes) -> bytes:
    """One HTTP/1.1 keep-alive POST with a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def render_get(path: str) -> bytes:
    """One HTTP/1.1 keep-alive GET."""
    return (
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")


class Connection:
    """One keep-alive connection; replaced after any transport fault."""

    def __init__(self, host: str, port: int, pool: "Pool") -> None:
        self.host, self.port, self.pool = host, port, pool
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def exchange(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request, read one response: ``(status, body)``."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
            self.pool.opened()
        assert self.reader is not None
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    def drop(self) -> None:
        """Close after a fault; the next exchange dials again."""
        if self.writer is not None:
            self.writer.close()
            self.writer = None
            self.reader = None
            self.pool.closed()


class Pool:
    """The driver's connections plus a count of how many were open."""

    def __init__(self, host: str, port: int, size: int) -> None:
        self.conns = [Connection(host, port, self) for _ in range(size)]
        self.open_now = 0
        self.open_max = 0

    def opened(self) -> None:
        self.open_now += 1
        self.open_max = max(self.open_max, self.open_now)

    def closed(self) -> None:
        self.open_now -= 1

    async def close(self) -> None:
        for conn in self.conns:
            writer = conn.writer
            conn.drop()
            if writer is not None:
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass


@dataclass
class PhaseResult:
    """What one open-loop phase saw, per request in schedule order."""

    #: Due-time-to-reply latency in seconds; ``None`` if never answered.
    latency: list[float | None]
    status: list[int]
    bodies: list[bytes]
    #: Seconds past due of each send (the backlog plus generator lag).
    send_lag: list[float]
    #: Generator lateness: send lag of requests whose connection was
    #: idle at the due time.
    late: list[float] = field(default_factory=list)
    #: Requests never sent because the phase was aborted.
    unsent: int = 0
    start: float = 0.0
    end: float = 0.0

    @property
    def n(self) -> int:
        return len(self.latency)

    @classmethod
    def concat(cls, parts: list["PhaseResult"]) -> "PhaseResult":
        """Consecutive phases as one, in schedule order."""
        return cls(
            latency=[v for p in parts for v in p.latency],
            status=[v for p in parts for v in p.status],
            bodies=[v for p in parts for v in p.bodies],
            send_lag=[v for p in parts for v in p.send_lag],
            late=[v for p in parts for v in p.late],
            unsent=sum(p.unsent for p in parts),
            start=parts[0].start,
            end=parts[-1].end,
        )

    def ok_latencies(self) -> list[float]:
        return [
            lat for lat, st in zip(self.latency, self.status)
            if st == 200 and lat is not None
        ]

    @property
    def failures(self) -> int:
        return sum(1 for st in self.status if st != 200)


async def run_phase(
    pool: Pool,
    requests: list[bytes],
    offsets: list[float],
    *,
    timeout_s: float,
    abort_lag_s: float | None = None,
) -> PhaseResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` over the pool.

    A request fails with status 0 on a transport error and -1 on a
    client timeout.  With ``abort_lag_s``, the phase stops sending once
    a request would go out more than that late (its backlog is already
    past any limit being searched for); unsent requests count as
    failures.
    """
    loop = asyncio.get_running_loop()
    n = len(requests)
    result = PhaseResult(
        latency=[None] * n, status=[-2] * n, bodies=[b""] * n,
        send_lag=[0.0] * n,
    )
    cursor = 0
    aborted = False
    start = loop.time() + 0.05

    async def worker(conn: Connection) -> None:
        nonlocal cursor, aborted
        while not aborted and cursor < n:
            i = cursor
            cursor += 1
            due = start + offsets[i]
            delay = due - loop.time()
            idle = delay > 0
            if idle:
                await asyncio.sleep(delay)
            sent = loop.time()
            lag = sent - due
            if abort_lag_s is not None and lag > abort_lag_s:
                aborted = True
                cursor = n
                result.unsent += n - i
                return
            result.send_lag[i] = lag
            if idle:
                result.late.append(lag)
            try:
                status, body = await asyncio.wait_for(
                    conn.exchange(requests[i]), timeout_s
                )
            except asyncio.TimeoutError:
                conn.drop()
                result.status[i] = -1
                continue
            except (OSError, asyncio.IncompleteReadError, ValueError):
                conn.drop()
                result.status[i] = 0
                continue
            result.latency[i] = loop.time() - due
            result.status[i] = status
            result.bodies[i] = body

    result.start = start
    await asyncio.gather(*(worker(c) for c in pool.conns))
    result.end = loop.time()
    return result


async def run_closed(pool: Pool, requests: list[bytes], timeout_s: float) -> int:
    """Send requests back to back over every connection; count non-200s."""
    cursor = 0
    failures = 0

    async def worker(conn: Connection) -> None:
        nonlocal cursor, failures
        while cursor < len(requests):
            i = cursor
            cursor += 1
            try:
                status, _ = await asyncio.wait_for(
                    conn.exchange(requests[i]), timeout_s
                )
            except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
                conn.drop()
                status = 0
            failures += status != 200

    await asyncio.gather(*(worker(c) for c in pool.conns))
    return failures


async def scrape_metrics(host: str, port: int) -> dict:
    """``GET /metrics`` on a fresh connection (outside the measured pool)."""
    pool = Pool(host, port, 1)
    try:
        status, body = await pool.conns[0].exchange(render_get("/metrics"))
    finally:
        await pool.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)
