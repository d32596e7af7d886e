"""Query resolvability: the query-side view of the rare-object problem.

The paper's §VI cites Loo et al.'s operational definition — a query is
*rare* when it returns fewer than 20 results — and §III shows fewer
than 4% of objects could ever clear that bar.  This module measures
the same thing from the query side: for every query in the workload,
the number of results available *anywhere in the network* (an oracle
upper bound no search strategy can beat), and hence the fraction of
queries that are rare, unresolvable, or popular.

This is the quantity that decides a hybrid's fate before a single
message is sent: if nearly every query is rare by construction, the
flood phase is pure overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.tracegen.query_trace import QueryWorkload
from repro.utils.rng import derive

if TYPE_CHECKING:  # overlay.content imports repro.analysis at load time
    from repro.overlay.content import SharedContentIndex

__all__ = ["ResolvabilityReport", "measure_resolvability"]


@dataclass(frozen=True)
class ResolvabilityReport:
    """Oracle result-count distribution over a query sample."""

    #: available results per sampled query (global knowledge).
    result_counts: np.ndarray
    #: distinct peers holding any result, per sampled query.
    peer_counts: np.ndarray
    rare_threshold: int

    @property
    def n_queries(self) -> int:
        """Number of sampled queries."""
        return self.result_counts.size

    @property
    def unresolvable_fraction(self) -> float:
        """Queries with zero results anywhere (mismatch casualties)."""
        return float(np.mean(self.result_counts == 0))

    @property
    def rare_fraction(self) -> float:
        """Queries below the Loo et al. threshold (including zero)."""
        return float(np.mean(self.result_counts < self.rare_threshold))

    @property
    def median_results(self) -> float:
        """Median available results per query."""
        return float(np.median(self.result_counts))

    def quantile(self, q: float) -> float:
        """Result-count quantile."""
        return float(np.quantile(self.result_counts, q))


def measure_resolvability(
    workload: QueryWorkload,
    content: SharedContentIndex,
    *,
    n_samples: int = 1_000,
    rare_threshold: int = 20,
    seed: int = 0,
) -> ResolvabilityReport:
    """Oracle-evaluate a random sample of workload queries.

    Each sampled query is matched against the *entire* content index —
    the best any search could do — and its result/peer counts recorded.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if rare_threshold < 1:
        raise ValueError("rare_threshold must be positive")
    rng = derive(seed, "resolvability")
    picks = rng.integers(0, workload.n_queries, size=n_samples)
    # Batched evaluation: the Zipf sample repeats few distinct queries,
    # so each distinct query intersects its postings (and deduplicates
    # its holder peers) exactly once.
    matches = content.match_batch(
        [workload.query_words(int(qi)) for qi in picks]
    )
    distinct_peers = np.fromiter(
        (
            np.unique(content.instance_peer[matches.distinct_instances(d)]).size
            for d in range(matches.n_distinct)
        ),
        dtype=np.int64,
        count=matches.n_distinct,
    )
    return ResolvabilityReport(
        result_counts=matches.counts,
        peer_counts=distinct_peers[matches.distinct_index],
        rare_threshold=rare_threshold,
    )
