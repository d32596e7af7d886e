"""The overlay query service: load once, serve many.

Everything below the repo's experiment layer evaluates workloads as
one-shot batch jobs; this package turns the same engines into a
long-lived process.  A :class:`~repro.serve.state.ServiceState` loads
topology + content index through the artifact cache and holds them
resident; a :class:`~repro.serve.service.QueryService`
micro-batches admitted requests through the resident
:class:`~repro.overlay.batch.BatchQueryEngine`, in-process; an
:class:`~repro.serve.server.OverlayQueryServer` speaks a minimal
stdlib HTTP/1.1 in front of it.  :mod:`repro.serve.load` is the
open-loop QPS driver that measures the result.

Responses are bitwise-equal to direct engine calls (the micro-batcher
leans on the engine's purity-per-row guarantee); admission control is
explicit (queue-full → 429 + ``Retry-After``, queued-past-deadline →
504); the process owns no ``/dev/shm`` segment at any point, and
SIGTERM drains it gracefully.  See ``docs/serving.md``.
"""

__all__: list[str] = []
