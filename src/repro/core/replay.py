"""Unified workload replay over pluggable search strategies.

Everything the repository compares — floods, QRP floods, expanding
rings, walks, DHT lookups, hybrids — answers the same two questions
per query: did it succeed, and what did it cost.  The replay engine
runs any set of :class:`SearchStrategy` implementations over an
identical query sample and aggregates
:class:`~repro.hybrid.cost_model.StrategyStats`, so comparisons are
one call instead of a hand-rolled loop.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.core.experiment import TraceBundle
from repro.dht.keyword_index import KeywordIndex
from repro.hybrid.cost_model import StrategyStats, aggregate
from repro.hybrid.search import HybridSearch
from repro.overlay.expanding_ring import expanding_ring_search
from repro.overlay.network import UnstructuredNetwork
from repro.utils.rng import derive

__all__ = [
    "SearchStrategy",
    "FloodStrategy",
    "WalkStrategy",
    "ExpandingRingStrategy",
    "DhtStrategy",
    "HybridStrategy",
    "replay",
]


class SearchStrategy(Protocol):
    """One pluggable search mechanism."""

    name: str

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        """Run one query; return ``(succeeded, messages)``."""
        ...


class FloodStrategy:
    """Plain TTL flooding."""

    def __init__(self, network: UnstructuredNetwork, ttl: int = 3) -> None:
        self.network = network
        self.ttl = ttl
        self.name = f"flood (TTL {ttl})"

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        out = self.network.query_flood(source, terms, self.ttl)
        return out.succeeded, float(out.messages)

    def search_batch(
        self, sources: np.ndarray, queries: Sequence[list[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized replay: one batched pass over the whole sample."""
        out = self.network.query_batch(sources, queries, ttl=self.ttl)
        return out.success, out.messages.astype(np.float64)


class WalkStrategy:
    """k-walker random walk."""

    def __init__(
        self, network: UnstructuredNetwork, *, walkers: int = 16, ttl: int = 64,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.walkers = walkers
        self.ttl = ttl
        self._seed = seed
        self._count = 0
        self.name = f"{walkers}-walker walk"

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        self._count += 1
        out = self.network.query_walk(
            source, terms, walkers=self.walkers, ttl=self.ttl,
            seed=derive(self._seed, "walk", self._count),
        )
        return out.succeeded, float(out.messages)


class ExpandingRingStrategy:
    """Iterative TTL deepening."""

    def __init__(
        self, network: UnstructuredNetwork, ttl_schedule: tuple[int, ...] = (1, 2, 3)
    ) -> None:
        self.network = network
        self.ttl_schedule = ttl_schedule
        self.name = "expanding ring"

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        out = expanding_ring_search(
            self.network, source, terms, ttl_schedule=self.ttl_schedule
        )
        return out.succeeded, float(out.messages)

    def search_batch(
        self, sources: np.ndarray, queries: Sequence[list[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized replay: every ring is a slice of one cached BFS."""
        out = self.network.query_batch(
            sources, queries, ttl_schedule=self.ttl_schedule
        )
        return out.success, out.messages.astype(np.float64)


class DhtStrategy:
    """Structured keyword lookup."""

    def __init__(self, index: KeywordIndex, *, intersection: str = "bloom") -> None:
        self.index = index
        self.intersection = intersection
        self.name = f"DHT ({intersection})"

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        out = self.index.query(
            terms, source % self.index.ring.n_nodes, intersection=self.intersection
        )
        return out.succeeded, float(out.messages)


class HybridStrategy:
    """Flood-then-DHT."""

    def __init__(self, hybrid: HybridSearch) -> None:
        self.hybrid = hybrid
        self.name = f"hybrid (TTL {hybrid.flood_ttl} -> DHT)"

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        out = self.hybrid.query(source, terms)
        return out.succeeded, float(out.messages)


def replay(
    bundle: TraceBundle,
    strategies: list[SearchStrategy],
    *,
    n_queries: int = 100,
    source_pool: np.ndarray | None = None,
    seed: int = 0,
) -> list[StrategyStats]:
    """Run every strategy over one identical query/source sample.

    Strategies exposing a ``search_batch`` method (floods, expanding
    rings) are replayed through the batched query engine — identical
    results, one deduplicated pass.  The rest fall back to the
    per-query loop.
    """
    if not strategies:
        raise ValueError("need at least one strategy")
    if n_queries < 1:
        raise ValueError("n_queries must be positive")
    workload = bundle.workload
    rng = derive(seed, "replay")
    picks = rng.integers(0, workload.n_queries, size=n_queries)
    if source_pool is None:
        source_pool = np.arange(bundle.trace.n_peers)
    sources = source_pool[rng.integers(0, source_pool.size, size=n_queries)]
    queries = [workload.query_words(int(qi)) for qi in picks]

    results: list[StrategyStats] = []
    for strategy in strategies:
        batch = getattr(strategy, "search_batch", None)
        if batch is not None:
            ok, msgs = batch(sources, queries)
        else:
            ok = np.zeros(n_queries, dtype=bool)
            msgs = np.zeros(n_queries, dtype=np.float64)
            for i, src in enumerate(sources):
                ok[i], msgs[i] = strategy.search(int(src), queries[i])
        results.append(aggregate(strategy.name, ok, msgs))
    return results
