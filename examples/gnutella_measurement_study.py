"""Replay the paper's Gnutella measurement methodology end to end (§II-III).

1. Build a Gnutella-like two-tier overlay and a synthetic share trace.
2. Run a Cruiser-style topology crawl (lossy).
3. Run a file crawl against the discovered peers (lossy).
4. Analyze the *crawled* data: replica and term distributions, Zipf
   fits, sanitization effect — exactly what the paper's Figs. 1-3 did.

    python examples/gnutella_measurement_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.replication import summarize_replication
from repro.analysis.tokenize import sanitize_name
from repro.analysis.zipf_fit import fit_zipf
from repro.core.reporting import format_percent, format_table
from repro.crawler import crawl_files, crawl_topology
from repro.overlay.content import SharedContentIndex
from repro.overlay.topology import two_tier_gnutella
from repro.tracegen.catalog import MusicCatalog
from repro.tracegen.gnutella_trace import GnutellaShareTrace


def main() -> None:
    print("Building the network and shares...")
    catalog = MusicCatalog()
    trace = GnutellaShareTrace(catalog)
    topology = two_tier_gnutella(trace.n_peers, seed=17)

    print("Topology crawl (Cruiser-style, 85% response rate)...")
    tcrawl = crawl_topology(topology, p_response=0.85, seed=17)
    print(
        f"  discovered {tcrawl.n_discovered:,} peers with "
        f"{tcrawl.n_requests:,} requests ({format_percent(tcrawl.response_rate)} answered)"
    )

    print("File crawl against discovered peers (90% response rate)...")
    fcrawl = crawl_files(trace, tcrawl.discovered, p_response=0.9, seed=17)
    print(
        f"  collected {fcrawl.n_instances:,} objects "
        f"({fcrawl.n_unique_names:,} unique) from {fcrawl.crawled_peers.size:,} peers"
    )

    counts = fcrawl.replica_counts()
    live = counts[counts > 0]
    summary = summarize_replication(live, trace.n_peers)
    fit = fit_zipf(live)

    print()
    print(
        format_table(
            ["metric", "crawled view", "paper"],
            [
                ("singleton fraction", format_percent(summary.singleton_fraction), "70.5%"),
                ("mean replicas", f"{summary.mean_replicas:.2f}", "~1.5"),
                ("objects on >= 20 peers", format_percent(summary.at_least_20_peers), "<4%"),
                ("Zipf exponent", f"{fit.exponent:.2f}", "Zipf-like"),
            ],
            title="FIG1 analog on the crawled (lossy) data",
        )
    )

    # Fig. 2: sanitization.
    names = [trace.names.lookup(int(i)) for i in np.unique(fcrawl.name_ids)]
    sanitized = {sanitize_name(n) for n in names}
    print(
        f"\nSanitization (FIG2): {len(names):,} -> {len(sanitized):,} unique names "
        f"({format_percent(1 - len(sanitized) / len(names))} recovered; paper: ~2.5%)"
    )

    # Fig. 3: term-level distribution over the full trace.
    content = SharedContentIndex(trace)
    term_counts = content.term_peer_counts()
    term_counts = term_counts[term_counts > 0]
    print(
        f"Terms (FIG3): {term_counts.size:,} unique terms, "
        f"{format_percent(float(np.mean(term_counts == 1)))} on a single peer, "
        f"Zipf s = {fit_zipf(term_counts).exponent:.2f}"
    )


if __name__ == "__main__":
    main()
