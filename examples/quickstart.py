"""Quickstart: generate the calibrated traces and print the headline stats.

Runs in under a minute::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.replication import summarize_replication
from repro.analysis.zipf_fit import fit_zipf
from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_percent, format_table
from repro.overlay.content import SharedContentIndex


def main() -> None:
    print("Generating the calibrated trace bundle (catalog + shares + queries)...")
    bundle = build_trace_bundle()
    trace = bundle.trace
    workload = bundle.workload

    counts = trace.replica_counts()
    summary = summarize_replication(counts, trace.n_peers)
    fit = fit_zipf(counts[counts > 0])

    print()
    print(
        format_table(
            ["metric", "value", "paper (April 2007)"],
            [
                ("peers", f"{trace.n_peers:,}", "37,572"),
                ("shared instances", f"{trace.n_instances:,}", "~12M"),
                ("unique names", f"{trace.n_unique_names:,}", "8.1M"),
                ("singleton names", format_percent(summary.singleton_fraction), "70.5%"),
                ("objects on >= 20 peers", format_percent(summary.at_least_20_peers), "<4%"),
                ("Zipf exponent (fit)", f"{fit.exponent:.2f}", "Zipf-like"),
            ],
            title="Gnutella share trace",
        )
    )

    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ("queries over one week", f"{workload.n_queries:,}"),
                ("query vocabulary", f"{workload.config.vocab_size:,} terms"),
                ("transient bursts injected", str(len(workload.bursts))),
            ],
            title="Query workload",
        )
    )

    # One real search, end to end.
    content = SharedContentIndex(trace)
    term_counts = content.term_peer_counts()
    popular_term = content.term_index.term_string(int(np.argmax(term_counts)))
    from repro.overlay.network import UnstructuredNetwork
    from repro.overlay.topology import flat_random

    network = UnstructuredNetwork(flat_random(trace.n_peers, 8.0, seed=1), content)
    outcome = network.query_flood(0, [popular_term], ttl=3)
    print()
    print(
        f"Flooding the most popular file term {popular_term!r} with TTL 3: "
        f"{outcome.n_results} results from {len(outcome.responding_peers)} peers "
        f"({outcome.messages} messages, {outcome.peers_probed} peers probed)."
    )


if __name__ == "__main__":
    main()
