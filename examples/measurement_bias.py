"""Quantify the measurement biases the paper's methodology defends against.

Three effects, each simulated on ground-truth data so the bias is
exactly measurable:

1. crawl-duration inflation under churn (why Cruiser exists);
2. lossy crawls (busy/firewalled peers) vs the true §III statistics;
3. monitor-position bias in passive query capture (Phex methodology).

    python examples/measurement_bias.py
"""

from __future__ import annotations

import numpy as np
from scipy import stats as sstats

from repro.analysis.replication import summarize_replication
from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_percent, format_table
from repro.crawler import crawl_files, monitor_queries
from repro.overlay.topology import two_tier_gnutella
from repro.overlay.churn import ChurnConfig, ChurnTimeline, crawl_snapshot


def main() -> None:
    bundle = build_trace_bundle()
    trace = bundle.trace

    # 1. Crawl-duration inflation.
    print("1. Crawl duration vs snapshot inflation (churn)...")
    timeline = ChurnTimeline(ChurnConfig(n_peers=trace.n_peers, seed=41))
    t0 = 20_000.0
    true_online = timeline.online_count(t0)
    rows = []
    for hours in (0.0, 2.0, 8.0, 24.0):
        observed = crawl_snapshot(
            timeline, start_s=t0, duration_s=hours * 3600.0, seed=41
        ).size
        rows.append((f"{hours:.0f} h", f"{observed:,}", f"{observed / true_online:.2f}x"))
    print(
        format_table(
            ["crawl duration", "peers observed", "vs instant snapshot"],
            rows,
            title=f"{true_online:,} peers actually online",
        )
    )

    # 2. Lossy file crawls.
    print("\n2. Crawl loss vs the singleton statistic...")
    truth = summarize_replication(trace.replica_counts(), trace.n_peers)
    rows = [("ground truth", "100%", format_percent(truth.singleton_fraction))]
    for p in (0.9, 0.7, 0.5):
        crawled = crawl_files(trace, np.arange(trace.n_peers), p_response=p, seed=41)
        s = summarize_replication(crawled.replica_counts(), trace.n_peers)
        rows.append(
            (f"crawl @ {p:.0%} response", format_percent(p), format_percent(s.singleton_fraction))
        )
    print(
        format_table(
            ["view", "peers answering", "singleton fraction"],
            rows,
            title="Lossy crawls barely move the shape statistics",
        )
    )

    # 3. Monitor-position bias.
    print("\n3. Passive query-monitor bias...")
    topology = two_tier_gnutella(trace.n_peers, seed=41)
    workload = bundle.workload
    mon = monitor_queries(topology, workload, monitor=0, ttl=2, seed=41)
    observed_counts = mon.observed_term_counts(workload)
    true_counts = np.zeros_like(observed_counts)
    np.add.at(true_counts, workload.term_ids, 1)
    head = np.argsort(true_counts)[::-1][:100]
    rho = sstats.spearmanr(true_counts[head], observed_counts[head]).statistic
    print(
        format_table(
            ["metric", "value"],
            [
                ("capture rate", format_percent(mon.capture_rate)),
                ("top-100 term rank correlation (Spearman)", f"{rho:.3f}"),
            ],
            title="The monitor samples a biased subset, but term ranks survive",
        )
    )


if __name__ == "__main__":
    main()
