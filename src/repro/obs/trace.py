"""Span-style stage tracing for pipeline runs.

A *span* brackets one named stage of a run — "fig8.topology",
"fig8.flood", "export" — and records its wall-clock duration plus its
nesting depth, giving a flat, ordered trace of where a command spent
its time.  The trace is process-local and observational only (same
contract as :mod:`repro.obs.metrics`): spans never influence RNG
streams, cache keys, or produced values.

Usage::

    from repro.obs import span

    with span("fig8.flood", ttl=7):
        run_flood(...)

Completed spans are collected by :func:`completed_spans` and embedded
in the ``--metrics`` manifest (see :mod:`repro.obs.manifest`).  The
store keeps the most recent 4,096 records, so a long-lived process
that opens spans per request holds bounded memory; each record pushed
out counts in the ``obs.spans.dropped`` counter.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import metrics

__all__ = ["SpanRecord", "span", "completed_spans", "reset_spans"]

#: Bound of the span store: the most recent records are kept.
_MAX_SPANS = 4096


@dataclass(frozen=True)
class SpanRecord:
    """One finished stage: name, duration, nesting depth, attributes."""

    name: str
    duration_s: float
    depth: int
    attrs: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        doc: dict[str, object] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "depth": self.depth,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        return doc


_COMPLETED: deque[SpanRecord] = deque(maxlen=_MAX_SPANS)
_DEPTH = [0]  # single-element list so the nesting level survives reassignment


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Time the enclosed block as stage ``name``.

    Keyword arguments become span attributes (must be JSON-friendly —
    they land verbatim in the metrics manifest).  Spans nest; depth is
    recorded so a reader can reconstruct the stage tree from the flat
    list.  The record is appended on exit even when the body raises,
    so partial runs still show where time went.
    """
    depth = _DEPTH[0]
    _DEPTH[0] = depth + 1
    start = time.perf_counter()
    try:
        yield
    finally:
        _DEPTH[0] = depth
        if len(_COMPLETED) == _MAX_SPANS:
            metrics().inc("obs.spans.dropped")
        _COMPLETED.append(
            SpanRecord(
                name=name,
                duration_s=time.perf_counter() - start,
                depth=depth,
                attrs=dict(attrs),
            )
        )


def completed_spans() -> list[SpanRecord]:
    """The most recent 4,096 finished spans, in completion order."""
    return list(_COMPLETED)


def reset_spans() -> None:
    """Drop the collected trace (tests isolate themselves with this)."""
    _COMPLETED.clear()
    _DEPTH[0] = 0
