"""Open-loop load driver: target-QPS traffic with an SLO report.

*Open loop* means arrival times are decided before the first request
is sent — a precomputed offset schedule, not "send the next request
when the last returns" — so a slow server faces the full offered rate
and the latency distribution shows queueing, which is the honest way
to measure an admission-controlled service (a closed-loop driver
self-throttles and hides overload).

The schedule, the Zipf query choices, and the source choices are all
deterministic functions of the config seed (via the project RNG
discipline), so two runs against the same server offer byte-identical
request streams.  Only the *timing* of completions differs — that is
the measurement.

Arrival profiles:

* ``uniform`` — evenly spaced at the target rate;
* ``poisson`` — exponential gaps (memoryless arrivals, the classic
  telephony model);
* ``burst`` — alternating hot/cold half-periods whose rates average
  the target, stressing the queue-full (429) shed path.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.obs import HistogramSnapshot, MetricsRegistry
from repro.serve.client import ServiceClient
from repro.serve.http import HttpError
from repro.tracegen.query_trace import QueryWorkload
from repro.utils.rng import derive

__all__ = [
    "LoadConfig",
    "LoadReport",
    "arrival_offsets",
    "build_query_pool",
    "run_load",
    "sample_query_indices",
    "sample_sources",
]


@dataclass(frozen=True)
class LoadConfig:
    """One load run: rate, shape, and per-request parameters."""

    qps: float = 50.0
    duration_s: float = 5.0
    profile: str = "uniform"  # uniform | poisson | burst
    #: Hot/cold rate ratio of the burst profile (mean stays ``qps``).
    burst_factor: float = 4.0
    burst_period_s: float = 1.0
    #: Zipf exponent of query popularity over the pool.
    zipf_exponent: float = 0.9
    #: Distinct queries drawn from the calibrated workload.
    pool_size: int = 64
    #: Queries per request (rows of one ``/search`` body).
    batch_size: int = 1
    ttl: int = 3
    min_results: int = 1
    #: Client-side deadline, also sent as the request's ``timeout_s``.
    timeout_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.qps <= 0 or self.duration_s <= 0:
            raise ValueError("qps and duration_s must be positive")
        if self.profile not in ("uniform", "poisson", "burst"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.burst_factor < 1 or self.burst_period_s <= 0:
            raise ValueError("burst_factor >= 1 and burst_period_s > 0 required")
        if self.pool_size < 1 or self.batch_size < 1:
            raise ValueError("pool_size and batch_size must be positive")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    @property
    def n_requests(self) -> int:
        """Requests in one run of the schedule."""
        return max(1, round(self.qps * self.duration_s))


def arrival_offsets(config: LoadConfig) -> np.ndarray:
    """Seconds-from-start send time per request (sorted, float64)."""
    n = config.n_requests
    if config.profile == "uniform":
        return np.arange(n, dtype=np.float64) / config.qps
    if config.profile == "poisson":
        rng = derive(config.seed, "load", "arrivals")
        gaps = rng.exponential(1.0 / config.qps, size=n)
        offsets: np.ndarray = np.cumsum(gaps)
        return offsets
    # burst: alternating hot/cold half-periods, mean-preserving —
    # rate_hot + rate_cold == 2 * qps with rate_hot/rate_cold == factor.
    half = config.burst_period_s / 2.0
    rate_hot = 2.0 * config.qps * config.burst_factor / (config.burst_factor + 1)
    rate_cold = 2.0 * config.qps / (config.burst_factor + 1)
    chunks: list[np.ndarray] = []
    start, sent = 0.0, 0
    while sent < n:
        for rate in (rate_hot, rate_cold):
            count = min(max(1, round(rate * half)), n - sent)
            if count > 0:
                chunks.append(
                    start + np.arange(count, dtype=np.float64) / rate
                )
                sent += count
            start += half
            if sent >= n:
                break
    return np.concatenate(chunks)


def build_query_pool(
    workload: QueryWorkload, pool_size: int
) -> list[list[str]]:
    """The first ``pool_size`` distinct workload queries, as term lists."""
    pool: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    for i in range(workload.n_queries):
        words = workload.query_words(i)
        key = tuple(words)
        if words and key not in seen:
            seen.add(key)
            pool.append(words)
            if len(pool) >= pool_size:
                break
    if not pool:
        raise ValueError("workload yielded no non-empty queries")
    return pool


def sample_query_indices(config: LoadConfig, n: int, pool: int) -> np.ndarray:
    """Zipf-popularity choice of pool index per query."""
    ranks = np.arange(1, pool + 1, dtype=np.float64)
    weights = ranks ** -config.zipf_exponent
    weights /= weights.sum()
    rng = derive(config.seed, "load", "queries")
    return rng.choice(pool, size=n, p=weights)


def sample_sources(config: LoadConfig, n: int, n_nodes: int) -> np.ndarray:
    """Uniform source peer per query."""
    rng = derive(config.seed, "load", "sources")
    return rng.integers(0, n_nodes, size=n, dtype=np.int64)


@dataclass(frozen=True)
class LoadReport:
    """What one load run measured, SLO quantiles included.

    Every request lands in exactly one outcome:
    ``ok + shed + timeouts + unanswered + errors == sent``.
    ``timeouts`` counts the server's 504s (a missed deadline), and
    ``unanswered`` the requests that got no reply within twice their
    ``timeout_s`` (a stalled server or network).
    """

    sent: int
    ok: int
    shed: int
    timeouts: int
    unanswered: int
    errors: int
    offered_qps: float
    achieved_qps: float
    duration_s: float
    latency: HistogramSnapshot
    status_counts: dict[int, int]

    def as_dict(self) -> dict:
        """JSON-ready report (what ``repro load --out`` writes)."""
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "unanswered": self.unanswered,
            "errors": self.errors,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_s": self.duration_s,
            "latency": self.latency.as_dict(),
            "status_counts": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
        }

    def as_rows(self) -> list[tuple[str, str]]:
        """Human-readable rows for the CLI table."""
        lat = self.latency
        rows = [
            ("requests sent", f"{self.sent:,}"),
            ("ok", f"{self.ok:,}"),
            ("shed (429)", f"{self.shed:,}"),
            ("timeouts (504)", f"{self.timeouts:,}"),
            ("unanswered", f"{self.unanswered:,}"),
            ("errors", f"{self.errors:,}"),
            ("offered rate", f"{self.offered_qps:,.1f} req/s"),
            ("achieved rate", f"{self.achieved_qps:,.1f} req/s"),
        ]
        if lat.count:
            rows.extend(
                [
                    ("latency p50", f"{lat.quantile(0.5) * 1e3:.2f} ms"),
                    ("latency p90", f"{lat.quantile(0.9) * 1e3:.2f} ms"),
                    ("latency p99", f"{lat.quantile(0.99) * 1e3:.2f} ms"),
                    ("latency max", f"{lat.max_v * 1e3:.2f} ms"),
                ]
            )
        return rows


async def run_load(
    host: str,
    port: int,
    config: LoadConfig,
    *,
    queries: list[list[str]],
    n_nodes: int,
) -> LoadReport:
    """Drive one open-loop run against a live service."""
    offsets = arrival_offsets(config)
    n = offsets.size
    rows = n * config.batch_size
    picks = sample_query_indices(config, rows, len(queries))
    sources = sample_sources(config, rows, n_nodes)
    registry = MetricsRegistry()  # local: never pollutes the process registry
    counts = {"ok": 0, "shed": 0, "timeout": 0, "unanswered": 0, "error": 0}
    status_counts: dict[int, int] = {}
    loop = asyncio.get_running_loop()

    async def fire(i: int, when: float, client: ServiceClient) -> None:
        delay = when - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lo = i * config.batch_size
        body = {
            "sources": [int(s) for s in sources[lo : lo + config.batch_size]],
            "queries": [
                queries[int(p)] for p in picks[lo : lo + config.batch_size]
            ],
            "ttl": config.ttl,
            "min_results": config.min_results,
            "timeout_s": config.timeout_s,
        }
        t0 = loop.time()
        try:
            response = await asyncio.wait_for(
                client.post("/search", body), config.timeout_s * 2
            )
        except asyncio.TimeoutError:
            counts["unanswered"] += 1
            return
        except (OSError, HttpError):
            counts["error"] += 1
            return
        status_counts[response.status] = (
            status_counts.get(response.status, 0) + 1
        )
        if response.status == 200:
            counts["ok"] += 1
            registry.observe_hist("load.latency", loop.time() - t0)
        elif response.status == 429:
            counts["shed"] += 1
        elif response.status == 504:
            counts["timeout"] += 1
        else:
            counts["error"] += 1

    async with ServiceClient(host, port) as client:
        start = loop.time() + 0.02
        t0 = loop.time()
        await asyncio.gather(
            *(fire(i, start + float(off), client) for i, off in enumerate(offsets))
        )
        elapsed = max(loop.time() - t0, 1e-9)

    return LoadReport(
        sent=n,
        ok=counts["ok"],
        shed=counts["shed"],
        timeouts=counts["timeout"],
        unanswered=counts["unanswered"],
        errors=counts["error"],
        offered_qps=config.qps,
        achieved_qps=counts["ok"] / elapsed,
        duration_s=elapsed,
        latency=registry.histogram("load.latency"),
        status_counts=status_counts,
    )
