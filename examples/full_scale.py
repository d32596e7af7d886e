"""Run the reproduction at the paper's full measurement scale.

Generates the April-2007-scale Gnutella trace (37,572 peers, ~12M
object instances) and the 2.5M-query week, then prints the §III/§IV
headline statistics.  This takes tens of minutes and several GB of
RAM — pass ``--yes`` to confirm, or run without it for the size
estimate only.

    python examples/full_scale.py --yes
"""

from __future__ import annotations

import sys
import time

from repro.analysis.replication import summarize_replication
from repro.core.reporting import format_percent, format_table
from repro.tracegen import presets
from repro.tracegen.catalog import MusicCatalog
from repro.tracegen.gnutella_trace import GnutellaShareTrace
from repro.tracegen.query_trace import QueryWorkload, file_term_peer_counts


def main() -> None:
    full_catalog = presets.CATALOG_FULL
    full_trace = presets.GNUTELLA_APRIL_2007
    expected_instances = full_trace.n_peers * full_trace.mean_library_size
    print(
        format_table(
            ["parameter", "value"],
            [
                ("peers", f"{full_trace.n_peers:,}"),
                ("expected instances", f"{expected_instances:,.0f}"),
                ("catalog songs", f"{full_catalog.n_songs:,}"),
                ("lexicon", f"{full_catalog.lexicon_size:,}"),
                ("queries", f"{presets.QUERIES_WEEK_APRIL_2007.n_queries:,}"),
            ],
            title="Full-scale run (paper's April 2007 populations)",
        )
    )
    if "--yes" not in sys.argv:
        print(
            "\nThis run needs tens of minutes and several GB of RAM.\n"
            "Re-run with --yes to proceed."
        )
        return

    t0 = time.time()
    print("\nBuilding the full-scale catalog...")
    catalog = MusicCatalog(full_catalog)
    print(f"  {time.time() - t0:,.0f}s")

    print("Generating the share trace (the long part: the per-song "
          "variant process is sequential)...")
    trace = GnutellaShareTrace(catalog, full_trace)
    print(f"  {time.time() - t0:,.0f}s — {trace.n_instances:,} instances, "
          f"{trace.n_unique_names:,} unique names")

    s = summarize_replication(trace.replica_counts(), trace.n_peers)
    print(
        format_table(
            ["metric", "measured", "paper"],
            [
                ("unique names", f"{s.n_objects:,}", "8.1M"),
                ("singleton fraction", format_percent(s.singleton_fraction), "70.5%"),
                (
                    "objects on < 0.1% of peers",
                    format_percent(
                        float((trace.replica_counts() <= 37).mean())
                    ),
                    "99.5%",
                ),
            ],
            title="§III-A at full scale",
        )
    )

    print("Generating the full week of queries...")
    counts = file_term_peer_counts(trace)
    workload = QueryWorkload(catalog, counts, presets.QUERIES_WEEK_APRIL_2007)
    print(f"  {time.time() - t0:,.0f}s — {workload.n_queries:,} queries, "
          f"{len(workload.bursts)} transient bursts")


if __name__ == "__main__":
    main()
