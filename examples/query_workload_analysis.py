"""The §IV query-workload analysis: Figs. 5, 6 and 7 in one run.

Captures a week of queries with a Phex-style monitor embedded in the
overlay, then runs the transient/stability/mismatch pipeline on the
full workload.

    python examples/query_workload_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_percent, format_table
from repro.core.mismatch import run_mismatch_analysis
from repro.crawler import monitor_queries
from repro.overlay.topology import two_tier_gnutella


def main() -> None:
    print("Generating traces and capturing queries...")
    bundle = build_trace_bundle()
    topology = two_tier_gnutella(bundle.trace.n_peers, seed=23)
    monitored = monitor_queries(topology, bundle.workload, monitor=0, ttl=4, seed=23)
    print(
        f"  the monitor saw {monitored.observed.size:,} of "
        f"{bundle.workload.n_queries:,} queries "
        f"({format_percent(monitored.capture_rate)} capture rate)"
    )

    print("Running the mismatch pipeline (Figs. 5-7)...")
    report = run_mismatch_analysis(bundle)

    rows = [
        (
            f"{s / 60:.0f} min",
            f"{c.mean():.2f}",
            f"{c.var():.2f}",
            int(c.max()),
        )
        for s, c in sorted(report.transient_counts.items())
    ]
    print()
    print(
        format_table(
            ["interval", "mean transients", "variance", "max"],
            rows,
            title="FIG5: transiently popular terms",
        )
    )

    print()
    print(
        format_table(
            ["metric", "value", "paper"],
            [
                (
                    "popular-set stability after warm-up",
                    format_percent(report.stability_after_warmup),
                    ">90%",
                ),
                (
                    "max query/file similarity",
                    format_percent(report.max_file_similarity),
                    "<20%",
                ),
                (
                    "overall query/file similarity",
                    format_percent(report.overall_similarity),
                    "~15%",
                ),
            ],
            title="FIG6 + FIG7 headline values",
        )
    )

    # How well does transient detection recover the injected bursts?
    truth = {b.vocab_rank for b in bundle.workload.bursts}
    flagged = report.transient_reports[report.config.primary_interval_s].all_flagged()
    print(
        f"\nTransient detection recovered {len(flagged & truth)} of "
        f"{len(truth)} injected bursts "
        f"({format_percent(len(flagged & truth) / len(truth))} recall)."
    )


if __name__ == "__main__":
    main()
