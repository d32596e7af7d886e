"""The paper's proposed fix (§VII / ref [9]): query-centric adaptive synopses.

Compares synopsis-selection policies under one message budget: pure
random walk, content-centric selection, static query-centric selection
and the transient-aware adaptive policy.

    python examples/adaptive_synopsis.py
"""

from __future__ import annotations

from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_percent, format_table
from repro.core.synopsis import SynopsisConfig, run_synopsis_experiment


def main() -> None:
    print("Generating traces and running the synopsis experiment...")
    bundle = build_trace_bundle()
    result = run_synopsis_experiment(bundle, SynopsisConfig(n_queries=800))

    rows = []
    for o in result.outcomes:
        rows.append(
            (
                o.policy,
                format_percent(o.success_rate),
                format_percent(o.success_transient),
                format_percent(o.success_persistent),
                f"{o.mean_messages:.0f}",
            )
        )
    print()
    print(
        format_table(
            ["policy", "success", "transient queries", "persistent queries", "msgs"],
            rows,
            title=(
                f"X-SYN: {result.n_queries} queries, "
                f"budget {result.walk_budget} messages/query"
            ),
        )
    )

    adaptive = result.outcome("adaptive")
    static = result.outcome("static-query")
    content = result.outcome("content")
    print(
        "\nReading: content-centric synopses waste capacity on terms nobody "
        f"queries (success {content.success_rate:.1%}); selecting by query "
        f"popularity lifts that to {static.success_rate:.1%}; tracking "
        "transiently popular terms lifts the transient-query class from "
        f"{static.success_transient:.1%} to {adaptive.success_transient:.1%} — "
        "the query-centric overlay the paper calls for."
    )


if __name__ == "__main__":
    main()
