"""Render the paper's key figures as ASCII charts in the terminal.

No plotting stack required — the shapes (Zipf tails, the Fig. 8
crossover, the Fig. 6/7 similarity bands) are visible directly.

    python examples/terminal_figures.py
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import build_trace_bundle
from repro.core.flood_sim import FloodSimConfig, run_fig8
from repro.core.asciiplot import line_chart, scatter_loglog
from repro.core.mismatch import run_mismatch_analysis
from repro.utils.zipf import rank_frequency


def main() -> None:
    print("Generating traces and running the experiments...\n")
    bundle = build_trace_bundle()

    # FIG 1: rank vs replica count, log-log.
    counts = bundle.trace.replica_counts()
    ranks, freq = rank_frequency(counts[counts > 0])
    print(
        scatter_loglog(
            ranks,
            freq,
            title="FIG1 — object popularity (rank vs peers holding it, log-log)",
        )
    )
    print()

    # FIG 6 + FIG 7 on one chart.
    report = run_mismatch_analysis(bundle)
    t = np.arange(report.stability_timeline.size, dtype=float)
    print(
        line_chart(
            {
                "Q*_t vs Q*_{t-1} (FIG6)": (t, report.stability_timeline),
                "Q_t vs F* (FIG7)": (t, report.file_similarity_timeline),
            },
            title="FIG6/FIG7 — popular-term stability vs query/file similarity",
        )
    )
    print()

    # FIG 8: success-rate curves.
    fig8 = run_fig8(FloodSimConfig(n_eval_objects=60))
    ttls = np.asarray(fig8.curves[0].ttls, dtype=float)
    series = {
        "Zipf": (ttls, fig8.curve("Zipf").success),
        "Uniform(1)": (ttls, fig8.curve("Uniform (1 replicas)").success),
        "Uniform(39)": (ttls, fig8.curve("Uniform (39 replicas)").success),
    }
    print(
        line_chart(
            series,
            title="FIG8 — flood success vs TTL (Zipf hugs the lowest curve)",
        )
    )


if __name__ == "__main__":
    main()
