"""Command-line interface: ``python -m repro <command>``.

Thin argparse dispatch onto the experiment functions, so a downstream
user can regenerate any paper artifact without writing code::

    python -m repro gen-trace --out trace.npz
    python -m repro analyze trace.npz
    python -m repro fig 8 --workers 4
    python -m repro reach
    python -m repro hybrid
    python -m repro mismatch
    python -m repro synopsis
    python -m repro cache info
    python -m repro fig 8 --metrics metrics.json --workers 2
    python -m repro stats metrics.json
    python -m repro serve --nodes 5000 --port 8642
    python -m repro load --port 8642 --qps 100 --duration 10
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

import numpy as np

__all__ = ["main", "build_parser"]

_METRICS_HELP = (
    "write a repro-metrics/1 JSON manifest (counters, timers, stage "
    "spans) of this run to the given path; inspect it with 'repro stats'"
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the need for query-centric unstructured "
            "peer-to-peer overlays' (Acosta & Chandra, IPPS 2008)."
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the hottest "
        "functions by cumulative time (place before the subcommand)",
    )
    parser.add_argument("--metrics", default=None, metavar="OUT", help=_METRICS_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-trace", help="generate and save a Gnutella share trace")
    gen.add_argument("--out", required=True, help="output .npz path")
    gen.add_argument("--peers", type=int, default=None, help="number of peers")
    gen.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser("analyze", help="replication statistics of a saved trace")
    analyze.add_argument("trace", help="path to a trace saved by gen-trace")

    fig = sub.add_parser("fig", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=(1, 2, 3, 4, 5, 6, 7, 8))
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for fig 8 (0 = one per CPU); "
        "results are identical for any value",
    )

    reach = sub.add_parser("reach", help="the §V TTL reach table (T-REACH)")
    reach.add_argument("--workers", type=int, default=1)
    hybrid = sub.add_parser("hybrid", help="the §V hybrid-vs-DHT table (T-HYBRID)")
    hybrid.add_argument("--workers", type=int, default=1)
    sub.add_parser("mismatch", help="the §IV mismatch headline values (Figs. 5-7)")
    sub.add_parser("synopsis", help="the §VII adaptive-synopsis experiment (X-SYN)")
    sub.add_parser("resolvability", help="oracle query resolvability (T-RESOLV)")
    sub.add_parser("workload", help="query-workload fact sheet")
    sub.add_parser("calibrate", help="calibration certificates for both traces")
    sub.add_parser("report", help="run everything; verdict on every headline claim")

    export = sub.add_parser(
        "export", help="run the main experiments and write CSVs + manifest"
    )
    export.add_argument("--out", required=True, help="output directory")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument(
        "--full", action="store_true", help="full Monte-Carlo sample counts"
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk artifact cache"
    )
    cache.add_argument("action", choices=("info", "clear"))

    stats = sub.add_parser(
        "stats", help="render a --metrics manifest written by an earlier run"
    )
    stats.add_argument("manifest", help="path to a repro-metrics/1 JSON file")

    serve = sub.add_parser(
        "serve", help="run the overlay query service (HTTP/JSON)"
    )
    serve.add_argument("--nodes", type=int, default=5_000)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="0 picks a free port"
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="term-range shards of the published posting lists",
    )
    serve.add_argument(
        "--engine-workers", type=int, default=1,
        help="engine fan-out width per micro-batch",
    )
    serve.add_argument("--max-queue", type=int, default=256)
    serve.add_argument(
        "--timeout", type=float, default=10.0,
        help="default per-request deadline in seconds",
    )
    serve.add_argument("--drain-timeout", type=float, default=30.0)
    serve.add_argument(
        "--ready-file", default=None,
        help="write 'host port' here once listening (CI handshake)",
    )

    load = sub.add_parser(
        "load", help="open-loop load driver against a running service"
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=8642)
    load.add_argument(
        "--nodes", type=int, default=5_000,
        help="must match the server's --nodes (shared query vocabulary)",
    )
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--qps", type=float, default=50.0)
    load.add_argument("--duration", type=float, default=5.0)
    load.add_argument(
        "--arrivals", choices=("uniform", "poisson", "burst"),
        default="uniform", help="arrival-time profile",
    )
    load.add_argument("--burst-factor", type=float, default=4.0)
    load.add_argument(
        "--zipf", type=float, default=0.9,
        help="Zipf exponent of query popularity over the pool",
    )
    load.add_argument("--pool", type=int, default=64)
    load.add_argument(
        "--batch", type=int, default=1, help="queries per request"
    )
    load.add_argument("--ttl", type=int, default=3)
    load.add_argument("--min-results", type=int, default=1)
    load.add_argument("--timeout", type=float, default=5.0)
    load.add_argument("--out", default=None, help="write the JSON report here")

    # Accept --metrics after the subcommand too (the natural place to
    # type it).  SUPPRESS keeps a subparser that didn't see the flag
    # from clobbering the main parser's value with a default.
    for action in sub.choices.values():
        action.add_argument(
            "--metrics",
            default=argparse.SUPPRESS,
            metavar="OUT",
            help=_METRICS_HELP,
        )
    return parser


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    from repro.tracegen.catalog import MusicCatalog
    from repro.tracegen.gnutella_trace import GnutellaShareTrace, GnutellaTraceConfig
    from repro.tracegen.io import save_trace

    catalog = MusicCatalog()
    kwargs = {"seed": args.seed}
    if args.peers is not None:
        kwargs["n_peers"] = args.peers
    trace = GnutellaShareTrace(catalog, GnutellaTraceConfig(**kwargs))
    save_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.n_peers:,} peers, "
        f"{trace.n_instances:,} instances, {trace.n_unique_names:,} unique names"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.replication import summarize_replication
    from repro.analysis.zipf_fit import fit_zipf
    from repro.core.reporting import format_percent, format_table
    from repro.tracegen.io import load_trace

    trace = load_trace(args.trace)
    counts = trace.replica_counts()
    s = summarize_replication(counts, trace.n_peers)
    fit = fit_zipf(counts[counts > 0])
    print(
        format_table(
            ["metric", "value"],
            [
                ("peers", f"{s.n_peers:,}"),
                ("instances", f"{s.n_instances:,}"),
                ("unique names", f"{s.n_objects:,}"),
                ("singleton fraction", format_percent(s.singleton_fraction)),
                ("mean replicas", f"{s.mean_replicas:.2f}"),
                ("objects on >= 20 peers", format_percent(s.at_least_20_peers)),
                ("Zipf exponent", f"{fit.exponent:.2f}"),
            ],
            title=f"Replication analysis of {args.trace}",
        )
    )
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from repro.core.reporting import format_percent, format_table

    n = args.number
    if n in (1, 2, 3):
        from repro.analysis.replication import summarize_replication
        from repro.core.experiment import build_content_index, build_trace_bundle

        bundle = build_trace_bundle()
        if n == 1:
            counts = bundle.trace.replica_counts()
            s = summarize_replication(counts, bundle.trace.n_peers)
            print(
                format_table(
                    ["metric", "value"],
                    [
                        ("unique names", f"{s.n_objects:,}"),
                        ("singleton fraction", format_percent(s.singleton_fraction)),
                        ("mean replicas", f"{s.mean_replicas:.2f}"),
                    ],
                    title="FIG1: Gnutella object replicas",
                )
            )
        elif n == 2:
            from repro.analysis.tokenize import sanitize_name

            names = bundle.trace.unique_names()
            sanitized = {sanitize_name(x) for x in names}
            print(
                f"FIG2: {len(names):,} raw uniques -> {len(sanitized):,} sanitized "
                f"({format_percent(1 - len(sanitized) / len(names))} recovered)"
            )
        else:
            content = build_content_index(bundle.trace)
            counts = content.term_peer_counts()
            counts = counts[counts > 0]
            print(
                f"FIG3: {counts.size:,} unique terms, "
                f"{format_percent(float(np.mean(counts == 1)))} single-peer"
            )
        return 0
    if n == 4:
        from repro.tracegen import presets
        from repro.tracegen.catalog import MusicCatalog
        from repro.tracegen.itunes_trace import ITunesShareTrace

        itunes = ITunesShareTrace(
            MusicCatalog(presets.CATALOG_ITUNES), presets.ITUNES_DEFAULT
        )
        rows = []
        for field, values in (
            ("song", itunes.song_ids),
            ("genre", itunes.genre_ids),
            ("album", itunes.album_ids),
            ("artist", itunes.artist_ids),
        ):
            counts = itunes.clients_per_value(values)
            counts = counts[counts > 0]
            rows.append(
                (field, f"{counts.size:,}", format_percent(float(np.mean(counts == 1))))
            )
        print(format_table(["field", "uniques", "single-client"], rows, title="FIG4"))
        return 0
    if n in (5, 6, 7):
        return _cmd_mismatch(args)
    # n == 8
    from repro.core.flood_sim import FloodSimConfig, run_fig8

    result = run_fig8(
        FloodSimConfig(n_eval_objects=80, seed=args.seed, n_workers=args.workers)
    )
    headers = ["TTL"] + [c.label for c in result.curves]
    rows = []
    for i, ttl in enumerate(result.curves[0].ttls):
        rows.append([ttl] + [f"{c.success[i]:.4f}" for c in result.curves])
    print(format_table(headers, rows, title="FIG8: flood success rate"))
    return 0


def _cmd_reach(args: argparse.Namespace) -> int:
    from repro.core.reach import PAPER_REACH, ReachConfig, measure_reach
    from repro.core.reporting import format_percent, format_table

    result = measure_reach(ReachConfig(n_sources=40, n_workers=args.workers))
    rows = [
        (
            ttl,
            format_percent(frac),
            f"{nodes:,.0f}",
            format_percent(PAPER_REACH[ttl]) if ttl in PAPER_REACH else "-",
        )
        for ttl, frac, nodes in result.as_rows()
    ]
    print(format_table(["TTL", "reach", "nodes", "paper"], rows, title="T-REACH"))
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from repro.core.hybrid_eval import HybridEvalConfig, evaluate_hybrid
    from repro.core.reporting import format_table

    result = evaluate_hybrid(
        HybridEvalConfig(n_eval_objects=80, n_workers=args.workers)
    )
    print(format_table(["metric", "value"], result.as_rows(), title="T-HYBRID"))
    return 0


def _cmd_mismatch(args: argparse.Namespace) -> int:
    from repro.core.mismatch import run_mismatch_analysis
    from repro.core.reporting import format_percent, format_table

    report = run_mismatch_analysis()
    rows = [
        ("popular-set stability (FIG6)", format_percent(report.stability_after_warmup)),
        ("max query/file similarity (FIG7)", format_percent(report.max_file_similarity)),
        ("overall query/file similarity", format_percent(report.overall_similarity)),
    ]
    for s, c in sorted(report.transient_counts.items()):
        rows.append((f"mean transients @ {s / 60:.0f} min (FIG5)", f"{c.mean():.2f}"))
    print(format_table(["metric", "value"], rows, title="§IV mismatch analysis"))
    return 0


def _cmd_synopsis(args: argparse.Namespace) -> int:
    from repro.core.reporting import format_percent, format_table
    from repro.core.synopsis import SynopsisConfig, run_synopsis_experiment

    result = run_synopsis_experiment(config=SynopsisConfig())
    rows = [
        (
            o.policy,
            format_percent(o.success_rate),
            format_percent(o.success_transient),
            f"{o.mean_messages:.0f}",
        )
        for o in result.outcomes
    ]
    print(
        format_table(
            ["policy", "success", "transient success", "msgs"], rows, title="X-SYN"
        )
    )
    return 0


def _cmd_resolvability(args: argparse.Namespace) -> int:
    from repro.analysis.resolvability import measure_resolvability
    from repro.core.experiment import build_content_index, build_trace_bundle
    from repro.core.reporting import format_percent, format_table

    bundle = build_trace_bundle()
    content = build_content_index(bundle.trace)
    report = measure_resolvability(bundle.workload, content, n_samples=1_000)
    print(
        format_table(
            ["metric", "value"],
            [
                ("unresolvable queries", format_percent(report.unresolvable_fraction)),
                ("rare queries (Loo et al.)", format_percent(report.rare_fraction)),
                ("median available results", f"{report.median_results:.0f}"),
            ],
            title="T-RESOLV",
        )
    )
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.analysis.workload_stats import summarize_workload
    from repro.core.experiment import build_trace_bundle
    from repro.core.reporting import format_percent, format_table

    bundle = build_trace_bundle()
    s = summarize_workload(bundle.workload)
    hist = ", ".join(
        f"{i}:{c:,}" for i, c in enumerate(s.terms_per_query_hist) if c
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ("queries", f"{s.n_queries:,}"),
                ("duration", f"{s.duration_s / 86_400:.1f} days"),
                ("mean rate", f"{s.mean_rate_per_hour:,.0f} queries/hour"),
                ("peak rate", f"{s.peak_rate_per_hour:,.0f} queries/hour"),
                ("terms per query", f"{s.terms_per_query_mean:.2f} (hist {hist})"),
                ("distinct terms", f"{s.distinct_terms:,}"),
                ("top-10 term share", format_percent(s.top10_term_share)),
                ("term Zipf exponent", f"{s.query_term_zipf_exponent:.2f}"),
            ],
            title="Query-workload fact sheet",
        )
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import check_gnutella_trace, check_itunes_trace
    from repro.core.experiment import build_trace_bundle
    from repro.core.reporting import format_table
    from repro.tracegen import presets
    from repro.tracegen.catalog import MusicCatalog
    from repro.tracegen.itunes_trace import ITunesShareTrace

    bundle = build_trace_bundle()
    gnutella = check_gnutella_trace(bundle.trace)
    itunes = check_itunes_trace(
        ITunesShareTrace(MusicCatalog(presets.CATALOG_ITUNES), presets.ITUNES_DEFAULT)
    )
    headers = ["target", "paper", "measured", "band", "status"]
    print(
        format_table(
            headers,
            [c.as_row() for c in gnutella],
            title="Gnutella trace calibration (§III-A)",
        )
    )
    print()
    print(
        format_table(
            headers, [c.as_row() for c in itunes], title="iTunes trace calibration (Fig. 4)"
        )
    )
    return 0 if all(c.passed for c in gnutella + itunes) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.paper_report import build_report, render_report

    claims = build_report()
    print(render_report(claims))
    return 0 if all(c.holds for c in claims) else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core.export import export_all

    manifest = export_all(args.out, seed=args.seed, quick=not args.full)
    print(f"wrote {args.out}/manifest.json plus {len(manifest)} headline values")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.reporting import format_bytes, format_table
    from repro.runtime.cache import BLOB_PRODUCERS, cache_info, clear_cache

    if args.action == "clear":
        removed = clear_cache()
        print(f"removed {removed} cached artifact(s)")
        return 0
    info = cache_info()
    rows = [
        ("path", info.path),
        ("enabled", "yes" if info.enabled else "no (REPRO_CACHE=off)"),
        ("entries", f"{info.n_entries:,}"),
        ("size", format_bytes(info.total_bytes)),
    ]
    for name, count in sorted(info.sections.items()):
        rows.append((f"  {name}", f"{count:,} entr{'y' if count == 1 else 'ies'}"))
    print(format_table(["key", "value"], rows, title="Artifact cache"))
    if info.entries:
        entry_rows = [
            (e.producer, e.key, e.format, format_bytes(e.n_bytes))
            for e in info.entries
        ]
        print()
        print(
            format_table(
                ["producer", "key", "format", "size"],
                entry_rows,
                title="Cache entries",
            )
        )
        legacy = sorted(
            {e.producer for e in info.entries
             if e.format == "pickle" and e.producer in BLOB_PRODUCERS}
        )
        if legacy:
            print()
            print(
                f"note: producer(s) {', '.join(legacy)} have legacy pickle "
                "entries; they "
                "still load, but re-running the producer (or `repro cache "
                "clear`) migrates them to the zero-copy mmap-blob format."
            )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.reporting import format_table
    from repro.obs import load_manifest

    try:
        doc = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = f"Run metrics: repro {' '.join(doc['argv'])} (exit {doc['exit_code']})"
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    timers = doc["metrics"]["timers"]
    sections: list[str] = []
    if counters:
        sections.append(
            format_table(
                ["counter", "value"],
                [(name, f"{value:,}") for name, value in sorted(counters.items())],
                title="Counters",
            )
        )
    if gauges:
        sections.append(
            format_table(
                ["gauge", "value"],
                [(name, f"{value:g}") for name, value in sorted(gauges.items())],
                title="Gauges",
            )
        )
    if timers:
        sections.append(
            format_table(
                ["timer", "count", "total", "mean"],
                [
                    (
                        name,
                        f"{t['count']:,}",
                        f"{t['total_s']:.3f}s",
                        f"{t['mean_s'] * 1e3:.2f}ms",
                    )
                    for name, t in sorted(timers.items())
                ],
                title="Timers",
            )
        )
    # Headline derived rate: queries/sec of the batched engine.
    batch_q = counters.get("batch.queries", 0)
    batch_t = timers.get("batch.evaluate", {}).get("total_s", 0.0)
    if batch_q and batch_t > 0:
        sections.append(f"batch throughput: {batch_q / batch_t:,.0f} queries/sec")
    if doc["spans"]:
        sections.append(
            format_table(
                ["stage", "duration"],
                [
                    ("  " * s["depth"] + s["name"], f"{s['duration_s'] * 1e3:.1f}ms")
                    for s in doc["spans"]
                ],
                title="Stages",
            )
        )
    print("\n\n".join([header, *sections]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.runtime.shm import cleanup_on_signal
    from repro.serve.server import OverlayQueryServer
    from repro.serve.service import ServicePolicy
    from repro.serve.state import ServiceConfig, ServiceState

    # Installed before any shm segment exists: a SIGTERM during the
    # (potentially long) artifact build must still unlink everything.
    # While the event loop runs it takes over the same signals for the
    # graceful-drain path.
    uninstall = cleanup_on_signal()
    try:
        config = ServiceConfig(
            n_nodes=args.nodes,
            seed=args.seed,
            n_shards=args.shards,
            engine_workers=args.engine_workers,
        )
        policy = ServicePolicy(
            max_queue=args.max_queue,
            default_timeout_s=args.timeout,
        )
        with ServiceState.from_config(config) as state:
            server = OverlayQueryServer(
                state, policy=policy, host=args.host, port=args.port
            )

            def announce(srv: OverlayQueryServer) -> None:
                print(
                    f"serving {state.n_nodes:,} nodes on "
                    f"http://{srv.host}:{srv.port}",
                    flush=True,
                )
                if args.ready_file:
                    Path(args.ready_file).write_text(f"{srv.host} {srv.port}\n")

            asyncio.run(
                server.run(
                    drain_timeout_s=args.drain_timeout, ready=announce
                )
            )
    finally:
        uninstall()
    print("drained and shut down cleanly")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from repro.core.experiment import build_trace_bundle
    from repro.core.reporting import format_table
    from repro.serve.load import LoadConfig, build_query_pool, run_load
    from repro.tracegen.gnutella_trace import GnutellaTraceConfig

    config = LoadConfig(
        qps=args.qps,
        duration_s=args.duration,
        profile=args.arrivals,
        burst_factor=args.burst_factor,
        zipf_exponent=args.zipf,
        pool_size=args.pool,
        batch_size=args.batch,
        ttl=args.ttl,
        min_results=args.min_results,
        timeout_s=args.timeout,
        seed=args.seed,
    )
    # Same trace config as the server's build: the query pool draws
    # from the vocabulary the service actually indexed.
    bundle = build_trace_bundle(
        trace_config=GnutellaTraceConfig(n_peers=args.nodes, seed=args.seed)
    )
    pool = build_query_pool(bundle.workload, config.pool_size)
    report = asyncio.run(
        run_load(
            args.host, args.port, config, queries=pool, n_nodes=args.nodes
        )
    )
    print(
        format_table(
            ["metric", "value"],
            report.as_rows(),
            title=f"Load report ({args.arrivals} @ {args.qps:g} qps)",
        )
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report.as_dict(), indent=2))
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


_COMMANDS = {
    "gen-trace": _cmd_gen_trace,
    "export": _cmd_export,
    "report": _cmd_report,
    "analyze": _cmd_analyze,
    "fig": _cmd_fig,
    "reach": _cmd_reach,
    "hybrid": _cmd_hybrid,
    "mismatch": _cmd_mismatch,
    "synopsis": _cmd_synopsis,
    "resolvability": _cmd_resolvability,
    "workload": _cmd_workload,
    "calibrate": _cmd_calibrate,
    "cache": _cmd_cache,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "load": _cmd_load,
}


def _run_profiled(
    command: Callable[[argparse.Namespace], int], args: argparse.Namespace
) -> int:
    """Run ``command`` under cProfile; print a top-25 cumulative table."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    code = profiler.runcall(command, args)
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(25)
    print(stream.getvalue(), end="")
    return int(code)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    With ``--metrics OUT`` the whole command runs inside a
    ``cli.<command>`` span with the ``cli.command`` timer, and the
    metrics registry + span trace are written to ``OUT`` as a
    ``repro-metrics/1`` manifest afterwards.  Instrumentation is
    observational only: command output and figure values are bitwise
    identical with and without the flag.
    """
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    metrics_out = getattr(args, "metrics", None)
    if metrics_out is None:
        if args.profile:
            return _run_profiled(command, args)
        return command(args)

    from repro.obs import build_manifest, metrics, span, write_manifest

    registry = metrics()
    code = 1
    try:
        with registry.timer("cli.command"), span(f"cli.{args.command}"):
            if args.profile:
                code = _run_profiled(command, args)
            else:
                code = command(args)
    finally:
        from repro.obs import completed_spans

        doc = build_manifest(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            snapshot=registry.snapshot(),
            spans=completed_spans(),
            exit_code=code,
            seed=getattr(args, "seed", None),
        )
        out = write_manifest(metrics_out, doc)
        print(f"wrote metrics manifest {out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
