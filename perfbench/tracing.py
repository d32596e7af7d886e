"""Spans recorded from outside the program, around calls into its layers.

The traced launcher and the traced paper child install wrappers around
public functions and methods of the program; each wrapper records a
span (name, start, end, parent span, request id).  Spans stay in memory
and are written out when the process ends.  Times are
``time.monotonic()``, which is the event loop's clock and is shared by
every process on the host, so the driver can window spans by its own
phase boundaries.

A span's *self time* is its duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: One span: (span id, parent span id, request id, name, start, end).
Span = tuple[int, int, int, str, float, float]


class SpanStore:
    """In-memory span list; safe to append from the loop and the engine thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Counts attributed to a request or round: (name, owner, value).
        self.events: list[tuple[str, int, int]] = []
        self._ids = itertools.count(1)
        self.request_ids = itertools.count(1)
        self.round_ids = itertools.count(1)
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self.request: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_request", default=0
        )

    def add(self, name: str, start: float, end: float, *, rid: int | None = None) -> None:
        """Record a span measured by the caller (a leaf of the current span)."""
        self.spans.append(
            (next(self._ids), self.current.get(),
             self.request.get() if rid is None else rid, name, start, end)
        )

    def count(self, name: str, value: int, *, owner: int | None = None) -> None:
        """Record a count against ``owner`` (default: the current request)."""
        self.events.append(
            (name, self.request.get() if owner is None else owner, value)
        )

    @contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[None]:
        """Time the block as a child of the enclosing span."""
        sid = next(self._ids)
        parent = self.current.get()
        token = self.current.set(sid)
        rtoken = self.request.set(rid) if rid is not None else None
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            owner = self.request.get()
            if rtoken is not None:
                self.request.reset(rtoken)
            self.current.reset(token)
            self.spans.append((sid, parent, owner, name, start, end))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as span ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _rid, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _parent, _rid, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


# -- serve wrappers -----------------------------------------------------


def install_serve(store: SpanStore, state: Any) -> None:
    """Wrap the serving stack of one resident ``ServiceState``.

    Event-loop side: request read/parse/submit and response render.
    Engine-thread side: one span per dispatch round, with query
    canonicalisation, matching, depth-cache lookups, evaluation and
    encoding nested inside it.
    """
    import repro.serve.server as server_mod
    import repro.serve.service as service_mod
    from repro.obs import metrics

    read_request = server_mod.read_request

    async def traced_read_request(reader: Any, **kwargs: Any) -> Any:
        # Time from the head's arrival, not from when the connection
        # started waiting for the next keep-alive request.
        marks: list[float] = []
        readuntil = reader.readuntil

        async def marked_readuntil(*args: Any) -> bytes:
            data = await readuntil(*args)
            marks.append(time.monotonic())
            return data  # type: ignore[no-any-return]

        reader.readuntil = marked_readuntil
        try:
            request = await read_request(reader, **kwargs)
        finally:
            del reader.readuntil
        end = time.monotonic()
        if request is not None and marks:
            rid = next(store.request_ids)
            store.request.set(rid)
            store.add("serve.http.read", marks[0], end, rid=rid)
        return request

    server_mod.read_request = traced_read_request

    job_rids: dict[int, int] = {}
    parse_search = server_mod.parse_search

    def traced_parse_search(*args: Any, **kwargs: Any) -> Any:
        with store.span("serve.protocol.parse"):
            parsed = parse_search(*args, **kwargs)
        job_rids[id(parsed)] = store.request.get()
        return parsed

    server_mod.parse_search = traced_parse_search
    server_mod.json_bytes = store.wrap("serve.http.json_bytes", server_mod.json_bytes)
    server_mod.render_response = store.wrap(
        "serve.http.render", server_mod.render_response
    )
    service_cls = service_mod.QueryService
    service_cls.submit = store.wrap("serve.service.submit", service_cls.submit)
    service_mod.encode_outcome = store.wrap(
        "serve.protocol.encode", service_mod.encode_outcome
    )

    execute = service_cls._execute

    def traced_execute(self: Any, jobs: list[Any]) -> Any:
        start = time.monotonic()
        round_id = -next(store.round_ids)
        for job in jobs:
            rid = job_rids.pop(id(job.request), 0)
            # enqueued_at is the event loop's clock, i.e. time.monotonic().
            store.add("serve.service.queue_wait", job.enqueued_at, start, rid=rid)
            store.count("serve.service.round_of", round_id, owner=rid)
        with store.span("serve.service.round", rid=round_id):
            return execute(self, jobs)

    service_cls._execute = traced_execute

    content = state.content
    content.query_key = store.wrap("overlay.content.query_key", content.query_key)
    content.match_key = store.wrap("overlay.content.match_key", content.match_key)
    prefetch = content.prefetch_keys

    def traced_prefetch(keys: Any, *args: Any, **kwargs: Any) -> None:
        registry = metrics()
        misses = registry.counter("match.cache.misses")
        with store.span("overlay.content.prefetch"):
            prefetch(keys, *args, **kwargs)
        store.count(
            "overlay.content.prefetch_misses",
            registry.counter("match.cache.misses") - misses,
        )

    content.prefetch_keys = traced_prefetch

    cache = state.engine.flood_cache
    entry = cache.entry

    def traced_entry(*args: Any, **kwargs: Any) -> Any:
        registry = metrics()
        misses = registry.counter("flood.cache.misses")
        start = time.monotonic()
        result = entry(*args, **kwargs)
        hit = registry.counter("flood.cache.misses") == misses
        store.add(
            "overlay.flooding.entry_hit" if hit else "overlay.flooding.entry_miss",
            start, time.monotonic(),
        )
        return result

    cache.entry = traced_entry

    engine = state.engine
    evaluate_keys = engine.evaluate_keys

    def traced_evaluate_keys(sources: Any, keys: Any, **kwargs: Any) -> Any:
        with store.span("overlay.batch.evaluate_keys"):
            outcome = evaluate_keys(sources, keys, **kwargs)
        store.count("overlay.batch.rows", len(keys))
        return outcome

    engine.evaluate_keys = traced_evaluate_keys


def install_setup(store: SpanStore) -> None:
    """Wrap the artifact-cache loads and shm publishing of service start-up."""
    import repro.core.experiment as experiment_mod
    import repro.serve.state as state_mod

    experiment_mod.cached_call = store.wrap(
        "runtime.cache.load", experiment_mod.cached_call
    )
    for name in ("SharedTopology", "ShardedPostings", "partition_postings"):
        setattr(state_mod, name, store.wrap("runtime.shm.publish", getattr(state_mod, name)))


# -- paper wrappers -----------------------------------------------------


def install_paper(store: SpanStore) -> None:
    """Wrap the stage functions that ``run_fig8`` and ``build_report`` call."""
    import repro.analysis.resolvability as resolvability_mod
    import repro.core.flood_sim as flood_sim_mod
    import repro.core.hybrid_eval as hybrid_mod
    import repro.core.mismatch as mismatch_mod
    import repro.core.synopsis as synopsis_mod
    from repro.overlay.content import SharedContentIndex

    flood_sim_mod.run_flood_success = store.wrap(
        "core.flood_sim.curve", flood_sim_mod.run_flood_success
    )
    flood_sim_mod.flood_depths = store.wrap(
        "overlay.flooding.flood_depths", flood_sim_mod.flood_depths
    )
    synopsis_mod.run_synopsis_experiment = store.wrap(
        "core.synopsis.run", synopsis_mod.run_synopsis_experiment
    )
    mismatch_mod.run_mismatch_analysis = store.wrap(
        "core.mismatch.run", mismatch_mod.run_mismatch_analysis
    )
    hybrid_mod.evaluate_hybrid = store.wrap(
        "core.hybrid_eval.run", hybrid_mod.evaluate_hybrid
    )
    resolvability_mod.measure_resolvability = store.wrap(
        "analysis.resolvability.run", resolvability_mod.measure_resolvability
    )
    SharedContentIndex.__init__ = store.wrap(  # type: ignore[method-assign]
        "overlay.content.index_build", SharedContentIndex.__init__
    )
