"""The query/annotation mismatch pipeline — paper Figs. 5, 6, 7.

Orchestrates the trace bundle and the temporal analyses into the three
§IV results:

* **Fig. 5** — number of transiently popular query terms per
  evaluation interval, for several interval lengths (low mean, high
  variance);
* **Fig. 6** — consecutive-interval Jaccard of the popular query-term
  sets (unstable early, then > 90%);
* **Fig. 7** — per-interval Jaccard between popular query terms and
  popular file-annotation terms (< 20% throughout).

File terms come from tokenizing the *observed* (noisy) names via the
shared content index — the same measurement path the paper used — and
are compared with query terms as strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.jaccard import jaccard, jaccard_timeline
from repro.analysis.popularity import top_k_set
from repro.analysis.temporal import (
    IntervalCounts,
    TransientReport,
    detect_transient_terms,
    interval_term_counts,
    popular_sets_cumulative,
)
from repro.core.experiment import TraceBundle, build_content_index, build_trace_bundle
from repro.overlay.content import SharedContentIndex

__all__ = ["MismatchConfig", "MismatchReport", "run_mismatch_analysis"]


@dataclass(frozen=True)
class MismatchConfig:
    """Parameters of the §IV analysis."""

    #: evaluation interval lengths, seconds (Fig. 5 sweeps these).
    intervals_s: tuple[float, ...] = (600.0, 1800.0, 3600.0, 7200.0)
    #: the interval Figs. 6 and 7 are plotted at (paper: 60 minutes).
    primary_interval_s: float = 3600.0
    #: size of the "popular" sets.
    top_k: int = 100
    #: transient detection parameters (see analysis.temporal).
    train_fraction: float = 0.1
    z_threshold: float = 6.0
    min_count: int = 5

    def __post_init__(self) -> None:
        if self.primary_interval_s not in self.intervals_s:
            raise ValueError("primary_interval_s must be one of intervals_s")
        if self.top_k < 1:
            raise ValueError("top_k must be positive")


@dataclass(frozen=True)
class MismatchReport:
    """All series of Figs. 5-7 plus the headline scalars."""

    config: MismatchConfig
    #: Fig. 5: interval length -> per-evaluation-interval transient counts.
    transient_counts: dict[float, np.ndarray]
    transient_reports: dict[float, TransientReport]
    #: Fig. 6: consecutive-interval Jaccard of popular query terms.
    stability_timeline: np.ndarray
    #: Fig. 7: per-interval Jaccard of query terms vs popular file terms.
    file_similarity_timeline: np.ndarray
    #: overall Jaccard between whole-trace popular query and file terms.
    overall_similarity: float
    #: per-interval fraction of observed query terms that exist on ANY
    #: file — the paper's "similarity between the query terms for the
    #: interval and the terms of all shared objects" (~5%..coverage
    #: readings vary; both the Jaccard and coverage views stay low).
    coverage_timeline: np.ndarray

    @property
    def stability_after_warmup(self) -> float:
        """Mean Fig. 6 Jaccard after the stabilization prefix."""
        series = self.stability_timeline
        warm = max(2, series.size // 10)
        return float(np.nanmean(series[warm:]))

    @property
    def max_file_similarity(self) -> float:
        """Largest Fig. 7 value — the paper's '< 20%' claim bound."""
        return float(np.nanmax(self.file_similarity_timeline))


def _popular_file_terms(content: SharedContentIndex, k: int) -> set[str]:
    """Top-k file terms by distinct-peer count, as strings (F*)."""
    counts = content.term_peer_counts()
    return {content.term_index.term_string(t) for t in top_k_set(counts, k)}


def run_mismatch_analysis(
    bundle: TraceBundle | None = None,
    config: MismatchConfig | None = None,
    *,
    content: SharedContentIndex | None = None,
) -> MismatchReport:
    """Run the full §IV pipeline on a trace bundle."""
    cfg = config or MismatchConfig()
    if bundle is None:
        bundle = build_trace_bundle()
    workload = bundle.workload
    if content is None:
        content = build_content_index(bundle.trace)

    def counts_at(interval_s: float) -> IntervalCounts:
        return interval_term_counts(
            workload.timestamps,
            workload.term_offsets,
            workload.term_ids,
            n_terms=workload.config.vocab_size,
            interval_s=interval_s,
            duration_s=workload.config.duration_s,
        )

    # Fig. 5 — transient term counts per interval length.
    transient_counts: dict[float, np.ndarray] = {}
    transient_reports: dict[float, TransientReport] = {}
    for interval_s in cfg.intervals_s:
        report = detect_transient_terms(
            counts_at(interval_s),
            train_fraction=cfg.train_fraction,
            z_threshold=cfg.z_threshold,
            min_count=cfg.min_count,
        )
        transient_counts[interval_s] = report.counts
        transient_reports[interval_s] = report

    # Fig. 6 — popular-set stability at the primary interval.
    primary = counts_at(cfg.primary_interval_s)
    popular = popular_sets_cumulative(primary, k=cfg.top_k)
    stability = jaccard_timeline(popular)

    # Fig. 7 — per-interval popular query terms vs popular file terms.
    file_terms = _popular_file_terms(content, cfg.top_k)
    per_interval_words = [
        {workload.vocab_words[i] for i in top_k_set(primary.counts[t], cfg.top_k)}
        for t in range(primary.n_intervals)
    ]
    file_similarity = np.asarray(
        [jaccard(words, file_terms) for words in per_interval_words]
    )

    # §IV-C scalar: how many observed query terms exist on any file.
    exists_on_a_file = np.asarray(
        [content.term_id(w) is not None for w in workload.vocab_words]
    )
    coverage = np.asarray(
        [
            float(exists_on_a_file[np.flatnonzero(primary.counts[t] > 0)].mean())
            if (primary.counts[t] > 0).any()
            else float("nan")
            for t in range(primary.n_intervals)
        ]
    )

    total_counts = primary.totals()
    overall_query_words = {
        workload.vocab_words[i] for i in top_k_set(total_counts, cfg.top_k)
    }
    overall = jaccard(overall_query_words, file_terms)

    return MismatchReport(
        config=cfg,
        transient_counts=transient_counts,
        transient_reports=transient_reports,
        stability_timeline=stability,
        file_similarity_timeline=file_similarity,
        overall_similarity=overall,
        coverage_timeline=coverage,
    )
