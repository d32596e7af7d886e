"""One-shot reproduction report: every headline claim, checked.

``build_report()`` runs the full experiment suite at reduced scale and
returns a structured list of claims with paper value, measured value
and verdict — the programmatic equivalent of EXPERIMENTS.md, used by
``python -m repro report`` and the release-gate integration test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Claim", "build_report", "render_report"]


@dataclass(frozen=True)
class Claim:
    """One paper claim and its measured verdict."""

    ident: str
    statement: str
    paper: str
    measured: str
    holds: bool


def build_report(seed: int = 0) -> list[Claim]:
    """Run the suite and evaluate every §III-§VII headline claim."""
    from repro.analysis.replication import summarize_replication
    from repro.analysis.resolvability import measure_resolvability
    from repro.core.experiment import build_content_index, build_trace_bundle
    from repro.core.hybrid_eval import HybridEvalConfig, evaluate_hybrid
    from repro.core.mismatch import run_mismatch_analysis
    from repro.core.synopsis import SynopsisConfig, run_synopsis_experiment

    claims: list[Claim] = []

    bundle = build_trace_bundle()
    content = build_content_index(bundle.trace)

    s = summarize_replication(bundle.trace.replica_counts(), bundle.trace.n_peers)
    claims.append(
        Claim(
            "FIG1",
            "~70% of object names are singletons",
            "70.5%",
            f"{s.singleton_fraction:.1%}",
            0.6 <= s.singleton_fraction <= 0.8,
        )
    )
    claims.append(
        Claim(
            "T-RARE",
            "fewer than 4% of objects on >= 20 peers",
            "<4%",
            f"{s.at_least_20_peers:.2%}",
            s.at_least_20_peers < 0.04,
        )
    )

    report = run_mismatch_analysis(bundle, content=content)
    claims.append(
        Claim(
            "FIG6",
            "popular query terms stable across intervals",
            ">90%",
            f"{report.stability_after_warmup:.1%}",
            report.stability_after_warmup > 0.9,
        )
    )
    claims.append(
        Claim(
            "FIG7",
            "query/file term similarity low at every interval",
            "<20%",
            f"max {report.max_file_similarity:.1%}",
            report.max_file_similarity < 0.2,
        )
    )
    primary = report.transient_counts[report.config.primary_interval_s]
    claims.append(
        Claim(
            "FIG5",
            "transiently popular terms: low mean, high variance",
            "mean < 10",
            f"mean {primary.mean():.1f}, var {primary.var():.1f}",
            primary.mean() < 10 and primary.var() > 0.2,
        )
    )

    resolv = measure_resolvability(bundle.workload, content, n_samples=800, seed=seed)
    claims.append(
        Claim(
            "T-RESOLV",
            "most queries are rare even for an oracle",
            "(implied)",
            f"{resolv.rare_fraction:.1%} rare",
            resolv.rare_fraction > 0.6,
        )
    )

    hybrid = evaluate_hybrid(HybridEvalConfig(n_eval_objects=60, seed=seed))
    claims.append(
        Claim(
            "FIG8",
            "TTL-3 flood success under Zipf placement",
            "~5%",
            f"{hybrid.flood_success:.1%}",
            0.02 <= hybrid.flood_success <= 0.10,
        )
    )
    claims.append(
        Claim(
            "T-HYBRID",
            "uniform 0.1% model overpredicts flood success",
            "62% predicted",
            f"{hybrid.predicted_success_0p1pct:.1%} predicted",
            hybrid.predicted_success_0p1pct / max(hybrid.flood_success, 1e-9) > 5,
        )
    )
    claims.append(
        Claim(
            "T-HYBRID",
            "hybrid search costs more than a pure DHT",
            "worse than DHT",
            f"{hybrid.hybrid_overhead:.0f}x DHT cost",
            hybrid.hybrid_overhead > 5,
        )
    )

    syn = run_synopsis_experiment(
        bundle, SynopsisConfig(n_queries=600, seed=seed), content=content
    )
    adaptive = syn.outcome("adaptive")
    static = syn.outcome("static-query")
    content_c = syn.outcome("content")
    claims.append(
        Claim(
            "X-SYN",
            "query-centric synopses beat content-centric ones",
            "(position)",
            f"{static.success_rate:.1%} vs {content_c.success_rate:.1%}",
            static.success_rate > content_c.success_rate,
        )
    )
    claims.append(
        Claim(
            "X-SYN",
            "adapting to transient terms lifts the transient class",
            "(ref [9])",
            f"{adaptive.success_transient:.1%} vs {static.success_transient:.1%}",
            adaptive.success_transient > static.success_transient,
        )
    )
    return claims


def render_report(claims: list[Claim]) -> str:
    """Text rendering of the claim table."""
    from repro.core.reporting import format_table

    rows = [
        (c.ident, c.statement, c.paper, c.measured, "HOLDS" if c.holds else "FAILS")
        for c in claims
    ]
    n_hold = sum(c.holds for c in claims)
    table = format_table(
        ["id", "claim", "paper", "measured", "verdict"],
        rows,
        title="Reproduction report — every headline claim",
    )
    return f"{table}\n\n{n_hold}/{len(claims)} claims hold."
