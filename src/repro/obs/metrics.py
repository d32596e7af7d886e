"""Process-local metrics registry: counters, gauges, and timers.

Instrumentation for the runtime/overlay hot paths — flood BFS counts,
cache hit rates, ``pmap`` fan-out cost — collected into one in-process
:class:`MetricsRegistry` and surfaced as a run manifest (see
:mod:`repro.obs.manifest`) or the ``repro stats`` CLI.

Design constraints, in force everywhere this module is used:

* **Observational only.**  Nothing recorded here may flow back into a
  simulation result, an RNG stream, or an artifact-cache key: a run
  with instrumentation produces bitwise-identical outputs to one
  without.  Counters and gauges are plain dict updates; only
  :meth:`MetricsRegistry.timer` reads the monotonic clock, and timer
  calls stay *out* of cached producers (simlint SIM013 treats
  ``repro.obs`` as trusted-observational, but the wall clock must
  still never shape a cached value).
* **Process-local.**  Each worker process accumulates into its own
  registry; :func:`repro.runtime.parallel.pmap` snapshots the
  per-task delta worker-side and merges it back into the
  coordinator's registry, so parallel runs report the same totals a
  serial run would.
* **Cheap.**  A counter increment is one dict ``get``/store — safe in
  per-call (not per-element) positions of kernels like
  ``flood_depths``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, NoReturn

__all__ = [
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Timer",
    "TimerSnapshot",
    "metrics",
]

#: Histogram bucket geometry: bucket ``i`` covers values in
#: ``(_HIST_BASE * _HIST_GROWTH**(i-1), _HIST_BASE * _HIST_GROWTH**i]``
#: with bucket 0 catching everything at or below ``_HIST_BASE``.  The
#: defaults span 10 microseconds to ~90 seconds in 48 buckets at ~1.4x
#: resolution — wide enough for request latencies, cheap enough to
#: ship in every worker delta.
_HIST_BASE = 1e-5
_HIST_GROWTH = 2.0 ** (1.0 / 2.0)
_HIST_BUCKETS = 48


def _bucket_index(value: float) -> int:
    """Bucket index for ``value`` (clamped to the last bucket)."""
    if value <= _HIST_BASE:
        return 0
    i = int(math.ceil(math.log(value / _HIST_BASE) / math.log(_HIST_GROWTH)))
    return min(i, _HIST_BUCKETS - 1)


def _bucket_upper(i: int) -> float:
    """Upper bound of bucket ``i``."""
    return _HIST_BASE * _HIST_GROWTH**i


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable log-bucketed distribution summary.

    Buckets are geometric (fixed base/growth, module-wide), so two
    snapshots merge by adding counts — workers and the coordinator
    never have to agree on anything but this module's constants.
    Quantiles are read from the bucket boundaries, i.e. an estimate
    with one-bucket (~1.4x) resolution, which is what an SLO report
    needs; exact extremes are carried in ``min_v``/``max_v``.
    """

    count: int
    total: float
    min_v: float
    max_v: float
    buckets: tuple[int, ...]

    @staticmethod
    def empty() -> "HistogramSnapshot":
        """A histogram with no observations."""
        return HistogramSnapshot(
            count=0, total=0.0, min_v=0.0, max_v=0.0,
            buckets=(0,) * _HIST_BUCKETS,
        )

    @property
    def mean(self) -> float:
        """Mean observed value (0 when never observed)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (bucket-upper-bound estimate).

        Returns ``nan`` for an empty histogram.  The estimate is
        clamped into ``[min_v, max_v]`` so degenerate distributions
        (all observations in one bucket) report exact values.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                return min(max(_bucket_upper(i), self.min_v), self.max_v)
        return self.max_v  # pragma: no cover - rank <= count always hits

    def merged(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two summaries of disjoint observation sets."""
        if not other.count:
            return self
        if not self.count:
            return other
        return HistogramSnapshot(
            count=self.count + other.count,
            total=self.total + other.total,
            min_v=min(self.min_v, other.min_v),
            max_v=max(self.max_v, other.max_v),
            buckets=tuple(
                a + b for a, b in zip(self.buckets, other.buckets)
            ),
        )

    def as_dict(self) -> dict:
        """JSON-ready summary (quantiles, not raw buckets)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min_v,
            "max": self.max_v,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }


@dataclass(frozen=True)
class TimerSnapshot:
    """Immutable summary of one timer: count plus duration statistics."""

    count: int
    total_s: float
    min_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        """Mean duration per observation (0 when never observed)."""
        return self.total_s / self.count if self.count else 0.0

    def merged(self, other: "TimerSnapshot") -> "TimerSnapshot":
        """Combine two summaries of disjoint observation sets."""
        if not other.count:
            return self
        if not self.count:
            return other
        return TimerSnapshot(
            count=self.count + other.count,
            total_s=self.total_s + other.total_s,
            min_s=min(self.min_s, other.min_s),
            max_s=max(self.max_s, other.max_s),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Picklable point-in-time copy of a registry (or a delta of one).

    ``pmap`` workers ship these across the process boundary; the
    coordinator folds them back in via :meth:`MetricsRegistry.merge`.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    timers: dict[str, TimerSnapshot] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        """Counter value (0 when never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> HistogramSnapshot:
        """Histogram summary (empty when never observed)."""
        return self.histograms.get(name, HistogramSnapshot.empty())

    def as_dict(self) -> dict:
        """JSON-ready form (the ``--metrics`` manifest embeds this)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {
                name: {
                    "count": t.count,
                    "total_s": t.total_s,
                    "min_s": t.min_s,
                    "max_s": t.max_s,
                    "mean_s": t.mean_s,
                }
                for name, t in sorted(self.timers.items())
            },
            "histograms": {
                name: h.as_dict() for name, h in sorted(self.histograms.items())
            },
        }


class Timer:
    """Context manager recording one duration into a registry timer.

    The only place in :mod:`repro.obs.metrics` that reads the clock;
    uses :func:`time.perf_counter` (monotonic), so recorded durations
    are immune to wall-clock adjustments.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class _HistAccumulator:
    """Mutable registry-side histogram (snapshots freeze to transport)."""

    __slots__ = ("count", "total", "min_v", "max_v", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min_v = 0.0
        self.max_v = 0.0
        self.buckets = [0] * _HIST_BUCKETS

    def add(self, value: float) -> None:
        value = float(value)
        if not self.count:
            self.min_v = self.max_v = value
        elif value < self.min_v:
            self.min_v = value
        elif value > self.max_v:
            self.max_v = value
        self.count += 1
        self.total += value
        self.buckets[_bucket_index(value)] += 1

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self.count,
            total=self.total,
            min_v=self.min_v,
            max_v=self.max_v,
            buckets=tuple(self.buckets),
        )


class MetricsRegistry:
    """Mutable process-local store of counters, gauges, and timers.

    Not thread-synchronized: :meth:`inc` reads a counter and then
    stores the sum, so two threads incrementing one name can lose an
    update.  Each process therefore records from one thread — the
    query service evaluates on its event loop — and ``pmap`` workers
    ship per-task deltas back for :meth:`merge`.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, TimerSnapshot] = {}
        self._hists: dict[str, _HistAccumulator] = {}

    # -- recording ----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to the latest ``value``."""
        self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one externally-measured duration into timer ``name``."""
        sample = TimerSnapshot(
            count=1, total_s=seconds, min_s=seconds, max_s=seconds
        )
        current = self._timers.get(name)
        self._timers[name] = sample if current is None else current.merged(sample)

    def timer(self, name: str) -> Timer:
        """A context manager timing its body into timer ``name``."""
        return Timer(self, name)

    def observe_hist(self, name: str, value: float) -> None:
        """Record one value into histogram ``name``.

        One dict lookup plus a few scalar updates — cheap enough for a
        per-request position (still not per-element of a kernel).
        """
        acc = self._hists.get(name)
        if acc is None:
            acc = _HistAccumulator()
            self._hists[name] = acc
        acc.add(value)

    def histogram(self, name: str) -> HistogramSnapshot:
        """Current histogram summary (empty when never observed)."""
        acc = self._hists.get(name)
        return acc.snapshot() if acc is not None else HistogramSnapshot.empty()

    # -- reading / combining ------------------------------------------

    def counter(self, name: str) -> int:
        """Current counter value (0 when never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        """A frozen copy of the current state."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            timers=dict(self._timers),
            histograms={
                name: acc.snapshot() for name, acc in self._hists.items()
            },
        )

    def delta_since(self, before: MetricsSnapshot) -> MetricsSnapshot:
        """What changed since ``before`` (worker-side per-task deltas).

        Counters subtract; timers subtract count/total and keep the
        current min/max (a per-task delta's extremes are dominated by
        the task's own observations); histograms subtract per-bucket
        counts the same way; gauges report their latest value.
        """
        counters = {
            name: value - before.counters.get(name, 0)
            for name, value in self._counters.items()
            if value != before.counters.get(name, 0)
        }
        timers: dict[str, TimerSnapshot] = {}
        for name, now in self._timers.items():
            prior = before.timers.get(name)
            count = now.count - (prior.count if prior else 0)
            if count <= 0:
                continue
            timers[name] = TimerSnapshot(
                count=count,
                total_s=now.total_s - (prior.total_s if prior else 0.0),
                min_s=now.min_s,
                max_s=now.max_s,
            )
        histograms: dict[str, HistogramSnapshot] = {}
        for name, acc in self._hists.items():
            now_h = acc.snapshot()
            prior_h = before.histograms.get(name)
            count = now_h.count - (prior_h.count if prior_h else 0)
            if count <= 0:
                continue
            if prior_h is None:
                histograms[name] = now_h
                continue
            histograms[name] = HistogramSnapshot(
                count=count,
                total=now_h.total - prior_h.total,
                min_v=now_h.min_v,
                max_v=now_h.max_v,
                buckets=tuple(
                    a - b for a, b in zip(now_h.buckets, prior_h.buckets)
                ),
            )
        return MetricsSnapshot(
            counters=counters,
            gauges=dict(self._gauges),
            timers=timers,
            histograms=histograms,
        )

    def merge(self, delta: MetricsSnapshot) -> None:
        """Fold a worker-side delta into this registry."""
        for name, value in delta.counters.items():
            self.inc(name, value)
        self._gauges.update(delta.gauges)
        for name, incoming in delta.timers.items():
            current = self._timers.get(name)
            self._timers[name] = (
                incoming if current is None else current.merged(incoming)
            )
        for name, hist in delta.histograms.items():
            acc = self._hists.get(name)
            if acc is None:
                acc = _HistAccumulator()
                self._hists[name] = acc
            merged = acc.snapshot().merged(hist)
            acc.count = merged.count
            acc.total = merged.total
            acc.min_v = merged.min_v
            acc.max_v = merged.max_v
            acc.buckets = list(merged.buckets)

    def reset(self) -> None:
        """Drop all recorded state (tests isolate themselves with this)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._hists.clear()

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._counters.items()))

    def __reduce__(self) -> NoReturn:
        # A worker recording into an unpickled copy would drop every
        # count it makes; the parent never sees the copy.
        raise TypeError(
            "MetricsRegistry is process-local and cannot be pickled; "
            "workers ship counter deltas (snapshot().delta_since) and "
            "the parent merges them"
        )


#: The process-wide registry every instrumented module records into.
#: Assigned once at import; worker processes (fork or spawn) each get
#: their own instance.
_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-local default registry."""
    return _REGISTRY
