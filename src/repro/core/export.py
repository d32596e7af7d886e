"""Result export: regenerate every paper artifact into a results directory.

A downstream user who wants to plot the figures needs the raw series,
not console tables.  ``export_all`` runs the main experiments and
writes one CSV per figure/table plus a JSON manifest of headline
scalars — the machine-readable counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.obs import span

__all__ = ["write_csv", "export_all"]


def write_csv(path: str | Path, headers: list[str], rows: list[tuple]) -> None:
    """Write one CSV file (parents created as needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def export_all(out_dir: str | Path, *, seed: int = 0, quick: bool = True) -> dict:
    """Run the main experiments and write their data under ``out_dir``.

    Returns the manifest dict (also written to ``manifest.json``).
    ``quick`` trims the Monte-Carlo sample counts for interactive use.
    """
    from repro.analysis.replication import summarize_replication
    from repro.core.experiment import build_content_index, build_trace_bundle
    from repro.core.flood_sim import FloodSimConfig, run_fig8
    from repro.core.hybrid_eval import HybridEvalConfig, evaluate_hybrid
    from repro.core.mismatch import run_mismatch_analysis
    from repro.core.reach import ReachConfig, measure_reach
    from repro.utils.stats import ccdf

    out = Path(out_dir)
    n_eval = 60 if quick else 200
    manifest: dict = {"seed": seed, "quick": quick}

    with span("export.trace"):
        bundle = build_trace_bundle()
        content = build_content_index(bundle.trace)

    # FIG1: replica CCDF.
    with span("export.fig1"):
        counts = bundle.trace.replica_counts()
        live = counts[counts > 0]
        x, p = ccdf(live)
        write_csv(out / "fig1_replica_ccdf.csv", ["replicas", "p_at_least"],
                  list(zip(x.tolist(), p.tolist())))
        summary = summarize_replication(live, bundle.trace.n_peers)
    manifest["fig1"] = {
        "singleton_fraction": summary.singleton_fraction,
        "mean_replicas": summary.mean_replicas,
        "unique_names": summary.n_objects,
    }

    # FIG3: term CCDF.
    with span("export.fig3"):
        term_counts = content.term_peer_counts()
        tx, tp = ccdf(term_counts[term_counts > 0])
        write_csv(out / "fig3_term_ccdf.csv", ["peers_with_term", "p_at_least"],
                  list(zip(tx.tolist(), tp.tolist())))

    # FIG5-7: mismatch pipeline series.
    with span("export.mismatch"):
        report = run_mismatch_analysis(bundle, content=content)
    for interval_s, series in report.transient_counts.items():
        write_csv(
            out / f"fig5_transients_{int(interval_s)}s.csv",
            ["interval_index", "transient_terms"],
            list(enumerate(series.tolist())),
        )
    write_csv(
        out / "fig6_stability.csv",
        ["interval_index", "jaccard"],
        [(i, v) for i, v in enumerate(report.stability_timeline.tolist())],
    )
    write_csv(
        out / "fig7_query_file_similarity.csv",
        ["interval_index", "jaccard"],
        [(i, v) for i, v in enumerate(report.file_similarity_timeline.tolist())],
    )
    manifest["fig6_stability_after_warmup"] = report.stability_after_warmup
    manifest["fig7_max_similarity"] = report.max_file_similarity

    # FIG8: all success curves.
    with span("export.fig8"):
        fig8 = run_fig8(FloodSimConfig(n_eval_objects=n_eval, seed=seed))
    rows = []
    for i, ttl in enumerate(fig8.curves[0].ttls):
        rows.append(tuple([ttl] + [float(c.success[i]) for c in fig8.curves]))
    write_csv(
        out / "fig8_flood_success.csv",
        ["ttl"] + [c.label for c in fig8.curves],
        rows,
    )
    manifest["fig8_zipf_ttl3"] = float(fig8.curve("Zipf").success[2])

    # T-REACH and T-HYBRID.
    with span("export.reach"):
        reach = measure_reach(ReachConfig(n_sources=20 if quick else 50, seed=seed))
        write_csv(
            out / "table_reach.csv",
            ["ttl", "fraction", "nodes"],
            reach.as_rows(),
        )
    with span("export.hybrid"):
        hybrid = evaluate_hybrid(HybridEvalConfig(n_eval_objects=n_eval, seed=seed))
        write_csv(out / "table_hybrid.csv", ["metric", "value"], hybrid.as_rows())
    manifest["hybrid_overhead"] = hybrid.hybrid_overhead
    manifest["flood_success_ttl3"] = hybrid.flood_success

    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest
