"""Per-layer metrics from the traced launcher's and paper child's spans.

Every function returns ``{name: (value, unit, samples)}``.  Serve
metrics use only spans that start inside the fixed-rate window the
driver marked; per-request stages count ``/search`` requests only.
"""

from __future__ import annotations

from collections import defaultdict

from common import median, quantile
from tracing import self_times

Metric = tuple[float, str, int]


def _dur(span: list) -> float:
    return span[5] - span[4]


def serve_layers(doc: dict) -> tuple[dict[str, Metric], float]:
    """Serve-stack metrics, plus the sum of the request stage medians (s)."""
    lo, hi = doc["marks"][0], doc["marks"][1]
    spans = [s for s in doc["spans"] if lo <= s[4] <= hi]
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
    search = {s[2] for s in by_name["serve.protocol.parse"]}

    def per_request(*names: str) -> list[float]:
        totals: dict[int, float] = defaultdict(float)
        for name in names:
            for s in by_name[name]:
                if s[2] in search:
                    totals[s[2]] += _dur(s)
        return list(totals.values())

    rounds = {s[2]: _dur(s) for s in by_name["serve.service.round"]}
    counts: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for name, owner, value in doc["events"]:
        counts[name].append((owner, value))
    round_of = {rid: rnd for rid, rnd in counts["serve.service.round_of"] if rid in search}
    rows = sum(v for owner, v in counts["overlay.batch.rows"] if owner in rounds)
    misses = sum(v for owner, v in counts["overlay.content.prefetch_misses"] if owner in rounds)
    hits_bfs = len(by_name["overlay.flooding.entry_hit"])
    miss_spans = by_name["overlay.flooding.entry_miss"]
    lookups = hits_bfs + len(miss_spans)
    selfs = self_times(spans)
    evaluate = by_name["overlay.batch.evaluate_keys"]
    match_s = sum(_dur(s) for s in by_name["overlay.content.prefetch"]) + sum(
        _dur(s) for s in by_name["overlay.content.match_key"]
    )
    stages = {
        "read": per_request("serve.http.read"),
        "parse": per_request("serve.protocol.parse"),
        "submit": per_request("serve.service.submit"),
        "queue": per_request("serve.service.queue_wait"),
        "round": [rounds[r] for r in round_of.values() if r in rounds],
        "write": per_request("serve.http.json_bytes", "serve.http.render"),
    }
    window = doc["window"]
    counters = window.get("counters", {})
    n_req = len(search)
    us = 1e6
    out: dict[str, Metric] = {
        "serve.http.read_us": (median(stages["read"]) * us, "us", len(stages["read"])),
        "serve.http.write_us": (median(stages["write"]) * us, "us", len(stages["write"])),
        "serve.protocol.parse_us": (median(stages["parse"]) * us, "us", len(stages["parse"])),
        "serve.protocol.encode_us": (
            median([_dur(s) for s in by_name["serve.protocol.encode"]]) * us,
            "us", len(by_name["serve.protocol.encode"]),
        ),
        "serve.service.queue_wait_us.p50": (median(stages["queue"]) * us, "us", len(stages["queue"])),
        "serve.service.queue_wait_us.p99": (
            quantile(stages["queue"], 0.99) * us, "us", len(stages["queue"]),
        ),
        "serve.service.jobs_per_round": (
            len(round_of) / max(1, len(set(round_of.values()))), "count", len(rounds),
        ),
        "serve.service.server_p50_ms": (
            (window.get("server_p50_s") or float("nan")) * 1e3, "ms", n_req,
        ),
        "overlay.content.query_key_us": (
            median([_dur(s) for s in by_name["overlay.content.query_key"]]) * us,
            "us", len(by_name["overlay.content.query_key"]),
        ),
        "overlay.content.match_us": (match_s / max(1, rows) * us, "us", rows),
        "overlay.content.match_hit_rate": (1.0 - misses / max(1, rows), "ratio", rows),
        "overlay.flooding.depth_hit_rate": (hits_bfs / max(1, lookups), "ratio", lookups),
        "overlay.flooding.bfs_per_query": (len(miss_spans) / max(1, rows), "count", rows),
        "overlay.flooding.bfs_us": (
            median([_dur(s) for s in miss_spans]) * us, "us", len(miss_spans),
        ),
        "overlay.flooding.cache_entries": (float(doc["cache_entries"]), "count", 1),
        "overlay.flooding.evictions": (
            float(counters.get("flood.cache.evictions", 0)), "count", lookups,
        ),
        "overlay.batch.evaluate_us": (
            sum(_dur(s) for s in evaluate) / max(1, rows) * us, "us", rows,
        ),
        "overlay.batch.self_us": (
            sum(selfs[s[0]] for s in evaluate) / max(1, rows) * us, "us", rows,
        ),
        "obs.spans_retained": (float(doc["spans_retained"]), "count", 1),
        "runtime.cache.load_s": _total(doc["spans"], "runtime.cache.load"),
        "runtime.shm.publish_s": _total(doc["spans"], "runtime.shm.publish"),
    }
    stage_sum = sum(median(v) for v in stages.values() if v)
    return out, stage_sum


def _total(spans: list, name: str) -> Metric:
    picked = [s for s in spans if s[3] == name]
    return (sum(_dur(s) for s in picked), "s", len(picked))


def paper_layers(doc: dict) -> dict[str, Metric]:
    """Stage totals of one traced `fig 8` + `report` run.

    The Fig. 8 stages count only spans inside ``run_fig8``; the report
    reuses the same kernels for its hybrid evaluation.
    """
    spans = doc["spans"]
    lo, hi = doc["fig8_window"]
    fig8 = [s for s in spans if lo <= s[4] <= hi]
    curves = [_dur(s) for s in fig8 if s[3] == "core.flood_sim.curve"]
    floods = _total(fig8, "overlay.flooding.flood_depths")
    return {
        "core.flood_sim.curve_s": (median(curves), "s", len(curves)),
        "overlay.flooding.flood_depths_calls": (float(floods[2]), "count", 1),
        "overlay.flooding.flood_depths_s": floods,
        "core.synopsis.run_s": _total(spans, "core.synopsis.run"),
        "core.mismatch.run_s": _total(spans, "core.mismatch.run"),
        "core.hybrid_eval.run_s": _total(spans, "core.hybrid_eval.run"),
        "analysis.resolvability.run_s": _total(spans, "analysis.resolvability.run"),
        "overlay.content.index_build_s": _total(spans, "overlay.content.index_build"),
    }


def metrics_deltas(scrapes: list[tuple[dict, dict]]) -> dict[str, Metric]:
    """The program's own cache and batching counters over the fixed phase.

    Sums of differences of ``GET /metrics`` scrapes taken before and
    after each fixed-phase slice: counters subtract, and histograms and
    timers give a mean from their count and total.
    """

    def counter(name: str) -> int:
        return sum(
            a["counters"].get(name, 0) - b["counters"].get(name, 0) for b, a in scrapes
        )

    def mean(section: str, name: str, total_key: str) -> tuple[float, int]:
        n, total = 0, 0.0
        for before, after in scrapes:
            a = after[section].get(name, {})
            b = before[section].get(name, {})
            n += a.get("count", 0) - b.get("count", 0)
            total += a.get(total_key, 0.0) - b.get(total_key, 0.0)
        return (total / n if n else float("nan")), n

    flood_hits, flood_misses = counter("flood.cache.hits"), counter("flood.cache.misses")
    match_hits, match_misses = counter("match.cache.hits"), counter("match.cache.misses")
    jobs, rounds = mean("histograms", "serve.batch.jobs", "total")
    server, n_server = mean("histograms", "serve.latency.SearchRequest", "total")
    evaluate, n_eval = mean("timers", "batch.evaluate", "total_s")
    return {
        "metrics.flood_cache_hit_rate": (
            flood_hits / max(1, flood_hits + flood_misses), "ratio",
            flood_hits + flood_misses,
        ),
        "metrics.flood_cache_evictions": (float(counter("flood.cache.evictions")), "count", 1),
        "metrics.match_cache_hit_rate": (
            match_hits / max(1, match_hits + match_misses), "ratio",
            match_hits + match_misses,
        ),
        "metrics.serve_batch_jobs": (jobs, "count", rounds),
        "metrics.server_mean_ms": (server * 1e3, "ms", n_server),
        "metrics.evaluate_mean_ms": (evaluate * 1e3, "ms", n_eval),
    }
