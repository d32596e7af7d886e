"""Micro-batching dispatcher with admission control.

Requests land on one bounded :class:`asyncio.Queue`.  A single
dispatcher task drains whatever is queued (until the round holds
``MAX_QUERIES_PER_REQUEST`` rows), drops jobs whose deadline already
passed (they resolve as 504 without touching the engine), groups the
survivors by evaluation parameters, and runs each group through the
resident :class:`~repro.overlay.batch.BatchQueryEngine` in one
``evaluate_keys`` call.

Everything runs on the event loop's thread.  A round is evaluated
inline, so no await point sits inside it: a round either finishes or
never starts, and the engine's caches and the metrics registry have
one writer.  After each round the dispatcher yields to the loop so
the sockets that became readable meanwhile get their requests parsed
and submitted before the next round is drained.

The parity guarantee rides on the engine's own: each query's outcome
is a pure function of ``(source, query key)``, so concatenating the
jobs of a group, evaluating once, and slicing the columns back per job
is bitwise identical to evaluating each request alone — the golden
tests compare the two directly.

Admission control is two-tiered and explicit:

* **queue full** → the request is *shed* before costing anything;
  the HTTP layer turns :class:`Overloaded` into a 429 with a
  ``Retry-After`` hint.
* **deadline passed** → a job that waited too long in the queue
  resolves as a 504 timeout at dispatch, so a burst cannot make the
  engine grind through work nobody is waiting for anymore.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_logger, metrics
from repro.overlay.batch import BatchOutcome
from repro.serve.protocol import (
    MAX_QUERIES_PER_REQUEST,
    FloodProbeRequest,
    ResolvabilityRequest,
    SearchRequest,
    encode_outcome,
)
from repro.serve.state import ServiceState

__all__ = ["Overloaded", "QueryService", "ServiceClosed", "ServicePolicy"]

_LOG = get_logger(__name__)

#: A resolved job: HTTP status plus the JSON-ready payload.
Reply = tuple[int, dict]


class Overloaded(Exception):
    """The admission queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"admission queue full; retry in {retry_after_s}s")
        self.retry_after_s = retry_after_s


class ServiceClosed(Exception):
    """The service is draining; new work is refused (HTTP 503)."""


@dataclass(frozen=True)
class ServicePolicy:
    """Admission-control knobs of one service."""

    #: Bound of the admission queue; the 429 threshold.
    max_queue: int = 256
    #: Deadline applied when a request carries no ``timeout_s``.
    default_timeout_s: float = 10.0
    #: ``Retry-After`` hint handed to shed requests.
    retry_after_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if self.default_timeout_s <= 0 or self.retry_after_s <= 0:
            raise ValueError("timeouts must be positive")


@dataclass
class _Job:
    """One admitted request, waiting on the queue for dispatch."""

    request: SearchRequest | ResolvabilityRequest | FloodProbeRequest
    deadline: float
    enqueued_at: float
    future: "asyncio.Future[Reply]" = field(repr=False, kw_only=True)

    @property
    def rows(self) -> int:
        """Rows this job adds to a dispatch round; a flood probe is one."""
        if isinstance(self.request, FloodProbeRequest):
            return 1
        return self.request.n_queries


class QueryService:
    """The bounded queue + dispatcher in front of one engine.

    All engine work runs inline on the event loop, one round at a
    time; a round holds at most ``MAX_QUERIES_PER_REQUEST`` rows plus
    the job that crossed the bound, which caps how long it keeps the
    loop from accepting, shedding and reading sockets.  Start with
    :meth:`start`, submit with :meth:`submit`, stop with :meth:`stop` —
    stopping drains admitted work before the dispatcher exits.
    """

    def __init__(
        self, state: ServiceState, policy: ServicePolicy | None = None
    ) -> None:
        self.state = state
        self.policy = policy or ServicePolicy()
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue(
            maxsize=self.policy.max_queue
        )
        self._dispatcher: "asyncio.Task[None] | None" = None
        self._closing = False

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for dispatch."""
        return self._queue.qsize()

    @property
    def closing(self) -> bool:
        """Whether :meth:`stop` has begun."""
        return self._closing

    async def start(self) -> None:
        """Spawn the dispatcher task."""
        if self._dispatcher is not None:
            raise RuntimeError("service already started")
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    def submit(
        self,
        request: SearchRequest | ResolvabilityRequest | FloodProbeRequest,
    ) -> "asyncio.Future[Reply]":
        """Admit one request; the future resolves to ``(status, body)``.

        Raises :class:`ServiceClosed` while draining and
        :class:`Overloaded` when the queue is at capacity.
        """
        if self._closing or self._dispatcher is None:
            raise ServiceClosed("service is not accepting requests")
        loop = asyncio.get_running_loop()
        now = loop.time()
        timeout = request.timeout_s or self.policy.default_timeout_s
        job = _Job(
            request=request,
            deadline=now + timeout,
            enqueued_at=now,
            future=loop.create_future(),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            metrics().inc("serve.shed")
            raise Overloaded(self.policy.retry_after_s) from None
        metrics().inc("serve.admitted")
        return job.future

    async def stop(self, *, drain_timeout_s: float = 30.0) -> None:
        """Refuse new work, drain admitted jobs, stop the dispatcher.

        Jobs still queued after ``drain_timeout_s`` resolve as 503.
        """
        if self._dispatcher is None:
            return
        self._closing = True
        try:
            await asyncio.wait_for(self._queue.join(), drain_timeout_s)
        except asyncio.TimeoutError:
            _LOG.warning(
                "drain timed out with %d job(s) queued", self._queue.qsize()
            )
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        while not self._queue.empty():
            job = self._queue.get_nowait()
            self._resolve(job, (503, {"error": "service shut down"}))
            self._queue.task_done()

    # -- dispatch ------------------------------------------------------

    def _resolve(self, job: _Job, reply: Reply) -> None:
        """Complete one job and record its latency + status class."""
        if job.future.cancelled():
            return
        status = reply[0]
        registry = metrics()
        registry.inc(f"serve.replies.{status}")
        kind = type(job.request).__name__
        registry.observe_hist(
            f"serve.latency.{kind}",
            asyncio.get_running_loop().time() - job.enqueued_at,
        )
        job.future.set_result(reply)

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            batch = [job]
            rows = job.rows
            while rows < MAX_QUERIES_PER_REQUEST:
                try:
                    job = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                batch.append(job)
                rows += job.rows
            metrics().observe_hist("serve.batch.jobs", float(len(batch)))
            now = loop.time()
            live: list[_Job] = []
            for j in batch:
                if now > j.deadline:
                    metrics().inc("serve.timeouts")
                    self._resolve(
                        j, (504, {"error": "deadline exceeded in queue"})
                    )
                else:
                    live.append(j)
            if live:
                try:
                    replies = self._execute(live)
                except Exception:  # simlint: ignore[SIM004] any engine fault becomes a 500; the loop must not wedge
                    _LOG.exception("dispatch batch failed")
                    for j in live:
                        self._resolve(
                            j, (500, {"error": "internal evaluation error"})
                        )
                else:
                    for j, reply in zip(live, replies):
                        self._resolve(j, reply)
            for _ in batch:
                self._queue.task_done()
            # The round held the loop, and ``queue.get()`` on a
            # non-empty queue never suspends: without these yields a
            # backlog would run round after round while handlers wait.
            # Pass 1 runs the socket callbacks that fired during the
            # round, pass 2 the handler tasks they woke (parse +
            # submit), and the next round drains on pass 3.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            await asyncio.sleep(0)

    # -- evaluation ----------------------------------------------------

    def _execute(self, jobs: list[_Job]) -> list[Reply]:
        """Evaluate one dispatch round."""
        replies: dict[int, Reply] = {}
        searches: list[tuple[int, SearchRequest]] = []
        for i, job in enumerate(jobs):
            request = job.request
            if isinstance(request, SearchRequest):
                searches.append((i, request))
            elif isinstance(request, ResolvabilityRequest):
                replies[i] = (200, self.state.resolvability(request.queries))
            else:
                replies[i] = (
                    200,
                    self.state.flood_probe(request.source, request.ttl),
                )
        for group in self._group_searches(searches).values():
            self._execute_search_group(group, replies)
        return [replies[i] for i in range(len(jobs))]

    @staticmethod
    def _group_searches(
        searches: list[tuple[int, SearchRequest]],
    ) -> dict[tuple[tuple[int, ...], int], list[tuple[int, SearchRequest]]]:
        """Group by evaluation parameters, preserving arrival order."""
        groups: dict[
            tuple[tuple[int, ...], int], list[tuple[int, SearchRequest]]
        ] = {}
        for i, request in searches:
            key = (request.ttl_schedule, request.min_results)
            groups.setdefault(key, []).append((i, request))
        return groups

    def _execute_search_group(
        self,
        group: list[tuple[int, SearchRequest]],
        replies: dict[int, Reply],
    ) -> None:
        """One engine call for all same-parameter search jobs.

        Rows are concatenated in job order and sliced back out, which
        the engine guarantees is bitwise identical to per-request
        evaluation.
        """
        first = group[0][1]
        sources = np.asarray(
            [s for _, request in group for s in request.sources],
            dtype=np.int64,
        )
        keys = [
            self.state.content.query_key(list(q))
            for _, request in group
            for q in request.queries
        ]
        outcome = self.state.engine.evaluate_keys(
            sources,
            keys,
            ttl_schedule=first.ttl_schedule,
            min_results=first.min_results,
            n_workers=self.state.engine_workers,
        )
        offset = 0
        for i, request in group:
            n = request.n_queries
            part = BatchOutcome(
                success=outcome.success[offset : offset + n],
                n_results=outcome.n_results[offset : offset + n],
                messages=outcome.messages[offset : offset + n],
                peers_probed=outcome.peers_probed[offset : offset + n],
            )
            replies[i] = (200, encode_outcome(part))
            offset += n
