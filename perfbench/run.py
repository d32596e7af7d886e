"""Benchmark of `repro serve` under open-loop load, plus the paper pipeline.

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 15 --trace 0

One run of a workload:

1. fills the benchmark's artifact cache (``.perfbench/cache``) if needed,
   so every timed start-up loads through the memory-mapped blob path;
2. starts ``repro serve`` with its defaults and times spawn-to-ready;
3. sends an untimed warm-up stream, then a fixed-rate open-loop phase of
   ``--seconds`` seconds;
4. stops the service with SIGTERM and checks no ``/dev/shm`` segment
   leaked, then times two more start-ups;
5. runs the computation behind ``repro fig 8`` and ``repro report`` in a
   child process, once before the service and once after it;
6. checks every output, outside the timed windows.

With ``--trace 1`` the untraced session also searches for the highest
rate that meets the workload's latency limit, the service then runs a
second time under a traced launcher, and the paper child records its
stage spans.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics untraced, per-layer metrics traced).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    TAIL_Q,
    WARMUP_BATCH,
    WARMUP_ROWS,
    WORK,
    WORKLOADS,
    Workload,
    cpu_seconds,
    load_pins,
    median,
    program_present,
    quantile,
    use_program,
)

Metric = tuple[float, str, int]

#: Client-side timeout of one request (the body asks the server for 5 s).
REQUEST_TIMEOUT_S = 10.0
#: Slices of the fixed-rate phase.
FIXED_CHUNKS = 5
#: SLO-search step bounds per workload.
MAX_STEPS = {"serve-point": 8, "serve-batch": 4}
#: Requests re-checked on the scalar path per phase.
SCALAR_SAMPLE = {"serve-point": 24, "serve-batch": 3}


@dataclass
class Verdicts:
    """Outcome of every output check of a run."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(f"FAILED: {what}")
        else:
            self.notes.append(f"ok: {what}")


@dataclass
class Session:
    """What one service session measured."""

    setup_s: float
    fixed_stream: object
    #: The fixed phase, per slice and joined.
    chunks: list = field(default_factory=list)
    fixed: object = None
    steps: list = field(default_factory=list)
    #: ``GET /metrics`` before and after each fixed-phase slice.
    scrapes: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    connections_max: int = 0
    qps_at_slo: float | None = None
    exit_code: int = 0
    leaked: set[str] = field(default_factory=set)


def _warmup_stream(fixture, workload: Workload, seed: int):
    from streams import build_stream

    return build_stream(
        fixture, workload, seed, "warmup", qps=1.0,
        n_requests=WARMUP_ROWS // WARMUP_BATCH, batch=WARMUP_BATCH,
    )


def _step_passes(result, workload: Workload) -> bool:
    """Limit met on the tail quantile, nothing failed, no growing backlog."""
    if result.failures or result.unsent:
        return False
    tail = quantile(result.ok_latencies(), TAIL_Q) * 1e3
    last = result.send_lag[-max(1, result.n // 10):]
    return tail <= workload.slo_ms and median(last) * 1e3 <= 0.5 * workload.slo_ms


class SloSearch:
    """Search for the highest offered rate that meets the workload's limit.

    Starts at 0.88x a capacity estimate, steps by 15% while only one
    side of the knee has been seen, then bisects until the bracket is
    within 4%.  A rate that fails is
    offered once more before it counts: one failure can be a stall of
    the shared machine rather than the service's limit.
    """

    def __init__(self, workload: Workload, seed: int, estimate: float) -> None:
        self.workload = workload
        self.seed = seed
        self.rate = 0.88 * estimate
        self.best_pass: float | None = None
        self.first_fail: float | None = None
        self.steps: list = []
        self.retrying = False
        self.done = False

    async def step(self, pool, fixture) -> None:
        """Offer one fresh stream at the current rate and move the bracket."""
        from driver import run_phase
        from streams import build_stream

        workload = self.workload
        n = max(20, round(self.rate * workload.step_s))
        stream = build_stream(
            fixture, workload, self.seed, f"step{len(self.steps)}",
            qps=self.rate, n_requests=n,
        )
        result = await run_phase(
            pool, stream.requests, stream.offsets, timeout_s=REQUEST_TIMEOUT_S,
            abort_lag_s=4 * workload.slo_ms / 1e3,
        )
        passed = _step_passes(result, workload)
        self.steps.append((self.rate, passed, result, stream))
        self.retrying = not passed and not self.retrying
        if not self.retrying:
            if passed:
                self.best_pass = max(self.best_pass or 0.0, self.rate)
            else:
                self.first_fail = min(self.first_fail or math.inf, self.rate)
            self._advance()
        self.done = len(self.steps) >= MAX_STEPS[workload.name] or (
            self.best_pass is not None
            and self.first_fail is not None
            and self.first_fail / self.best_pass <= 1.04
        )

    def _advance(self) -> None:
        """Next rate: step while one-sided, then bisect the bracket."""
        if self.first_fail is None:
            self.rate *= 1.15
        elif self.best_pass is None:
            self.rate /= 1.15
        else:
            self.rate = math.sqrt(self.best_pass * self.first_fail)


def serve_session(
    server, fixture, workload: Workload, seed: int, fixed_stream, *,
    search: bool, mark: bool,
) -> Session:
    """Start ``server``, warm it, run the fixed phase (and search), stop it.

    The fixed phase runs in FIXED_CHUNKS slices; a searching session
    puts one SLO-search step after each slice, so both spread over the
    session instead of each sitting in one stretch of machine time.
    """
    from driver import (
        Pool, PhaseResult, max_connections, run, run_closed, run_phase, scrape_metrics,
    )

    warm = _warmup_stream(fixture, workload, seed)

    async def drive(setup_s: float) -> Session:
        pool = Pool(server.host, server.port, max_connections())
        try:
            if await run_closed(pool, warm.requests, 120.0):
                raise RuntimeError("warm-up requests failed")
            session = Session(setup_s=setup_s, fixed_stream=fixed_stream)
            slo: SloSearch | None = None
            if mark:
                server.signal(signal.SIGUSR1)
                await asyncio.sleep(0.05)
            for requests, offsets in fixed_stream.chunks(FIXED_CHUNKS):
                before = await scrape_metrics(server.host, server.port)
                cpu0 = cpu_seconds(server.pid)
                chunk = await run_phase(pool, requests, offsets, timeout_s=REQUEST_TIMEOUT_S)
                busy = (cpu_seconds(server.pid) - cpu0) / max(1e-9, chunk.end - chunk.start)
                session.scrapes.append((before, await scrape_metrics(server.host, server.port)))
                session.chunks.append(chunk)
                if search:
                    slo = slo or SloSearch(workload, seed, workload.fixed_qps / max(busy, 1e-3))
                    if not slo.done:
                        await slo.step(pool, fixture)
            if mark:
                server.signal(signal.SIGUSR1)
                await asyncio.sleep(0.05)
            while slo is not None and not slo.done:
                await slo.step(pool, fixture)
            if slo is not None:
                session.qps_at_slo, session.steps = slo.best_pass, slo.steps
            session.fixed = PhaseResult.concat(session.chunks)
            session.connections_max = pool.open_max
            return session
        finally:
            await pool.close()

    try:
        session = run(drive(server.start()))
        session.peak_rss_mb = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    session.exit_code, session.leaked = server.stop()
    return session


def timed_setup(verdicts: Verdicts, label: str) -> float:
    """Time one more start-up of ``repro serve``; it must stop clean."""
    from procs import ServerProcess

    server = ServerProcess.repro_serve(label)
    try:
        ready_s = server.start()
    except BaseException:
        server.kill()
        raise
    code, leaked = server.stop()
    verdicts.check(code == 0 and not leaked, f"{label}: stopped cleanly, no shm leak")
    return ready_s


def run_paper(trace: bool, verdicts: Verdicts) -> dict:
    """One timed `fig 8` + `report` run in a child process."""
    from procs import run_child

    out = WORK / "paper.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "paper.py"), "--out", str(out)]
    code, spawned = run_child(argv + (["--trace"] if trace else []), "paper.log", 170.0)
    verdicts.check(code == 0, "paper pipeline exited 0")
    if code != 0:
        raise RuntimeError("paper pipeline failed")
    doc = json.loads(out.read_text())
    doc["setup_s"] = doc["loaded_at"] - spawned
    pinned = load_pins().get("paper", {}).get("curves")
    verdicts.check(doc["curves_digest"] == pinned, "Fig. 8 curves match the pinned digest")
    claims = doc["claims"]
    verdicts.check(len(claims) == 11, "report has 11 claims")
    for ident, statement, holds in claims:
        verdicts.check(holds, f"claim {ident}: {statement}")
    return doc


def check_session(fixture, workload: Workload, seed: int, session: Session, verdicts: Verdicts, label: str) -> None:
    """Status, digest, scalar-sample and shutdown checks of one session."""
    from checks import expected_digest, reply_digest, sample_indices, scalar_mismatches

    fixed = session.fixed
    verdicts.check(session.exit_code == 0, f"{label}: server exited 0 on SIGTERM")
    verdicts.check(not session.leaked, f"{label}: no leaked /dev/shm segment {sorted(session.leaked)}")
    verdicts.attempted += fixed.n
    verdicts.failed += fixed.failures
    verdicts.notes.append(
        f"{'FAILED' if fixed.failures else 'ok'}: {label}: "
        f"{fixed.failures} of {fixed.n} fixed-phase requests failed"
    )
    want, source = expected_digest(fixture, workload, seed, session.fixed_stream)
    verdicts.check(reply_digest(fixed.bodies) == want, f"{label}: reply-stream digest ({source})")
    phases = [("fixed", session.fixed_stream, fixed)] + [
        (f"step{k}", stream, result) for k, (_r, _p, result, stream) in enumerate(session.steps)
    ]
    for phase, stream, result in phases:
        answered = [i for i, st in enumerate(result.status) if st == 200]
        if not answered:
            continue
        k = SCALAR_SAMPLE[workload.name] if phase == "fixed" else 1
        picks = [answered[i] for i in sample_indices(seed, f"{label}/{phase}", len(answered), k)]
        checked, bad = scalar_mismatches(fixture, workload, stream, result.bodies, picks)
        verdicts.check(bad == 0, f"{label}/{phase}: {checked} rows match the scalar path", checked)


def fixed_metrics(session: Session) -> dict[str, Metric]:
    """Latency quantiles per fixed-phase slice, then their median.

    A stall of the shared machine lands in one or two slices; the median
    over slices keeps it from setting the run's figure.
    """
    slices = [[v * 1e3 for v in c.ok_latencies()] for c in session.chunks]
    slices = [lat for lat in slices if lat]
    n = sum(len(lat) for lat in slices)
    return {
        "lat_p50_ms": (median([median(lat) for lat in slices]), "ms", n),
        "load.lat_p95_ms": (median([quantile(lat, TAIL_Q) for lat in slices]), "ms", n),
    }


def print_table(title: str, metrics: dict[str, Metric]) -> None:
    print(f"\n{title}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<38} {value:>14.4f} {unit:<6} (n={n})")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], default="all",
        help="'all' runs every workload, untraced and traced unless --trace is given",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not program_present():
        print("perfbench: no program sources under src/; nothing to measure", file=sys.stderr)
        return 2
    use_program()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        doc = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(doc, allow_nan=False))
        return 0
    # Every workload and mode in one command; the summary line prefixes
    # each metric with its workload.
    traces = [args.trace] if args.trace is not None else [0, 1]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in traces:
            doc = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(trace))
            summary["correct"] = summary["correct"] and doc["correct"]
            summary["attempted"] += doc["attempted"]
            summary["failed"] += doc["failed"]
            for metric, value in doc["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary, allow_nan=False))
    return 0


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    from layers import metrics_deltas
    from procs import ServerProcess
    from streams import Fixture, build_stream, fill_cache

    fill_cache()
    fixture = Fixture()
    n_fixed = round(workload.fixed_qps * seconds)
    fixed_stream = build_stream(
        fixture, workload, seed, "fixed", qps=workload.fixed_qps, n_requests=n_fixed
    )
    verdicts = Verdicts()
    print(f"== {workload.name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    # An untraced run times the pipeline twice, before and after the
    # service, so its two figures come from different stretches of the
    # shared machine's time.
    papers = [] if trace else [run_paper(False, verdicts)]
    session = serve_session(
        ServerProcess.repro_serve("main"), fixture, workload, seed, fixed_stream,
        search=trace, mark=False,
    )
    check_session(fixture, workload, seed, session, verdicts, "serve")
    latency = fixed_metrics(session)
    deltas = metrics_deltas(session.scrapes)
    if not trace:
        setups = [session.setup_s, timed_setup(verdicts, "start-up 2")]
        papers.append(run_paper(False, verdicts))
        setups.append(timed_setup(verdicts, "start-up 3"))
        out = {
            "setup_s": (median(setups), "s", len(setups)),
            "lat_p50_ms": latency["lat_p50_ms"],
            "peak_rss_mb": (session.peak_rss_mb, "MB", 1),
            "fig8_s": (median([p["fig8_s"] for p in papers]), "s", len(papers)),
            "report_s": (median([p["report_s"] for p in papers]), "s", len(papers)),
        }
        print_table("end-to-end (fixed-rate phase unless noted)", out)
        print_table("tail latency (reported, not gated)", {"load.lat_p95_ms": latency["load.lat_p95_ms"]})
        print_table("program counters over the fixed-rate phase (GET /metrics deltas)", deltas)
        print(f"\n  fail_frac {session.fixed.failures / session.fixed.n:.6f} "
              f"(failed {session.fixed.failures} of {session.fixed.n} fixed-phase requests)")
    else:
        from layers import paper_layers, serve_layers

        traced_server = ServerProcess(
            [sys.executable, str(HERE / "traced_serve.py"), "--spans-out", str(WORK / "spans.json")],
            "traced",
        )
        traced = serve_session(
            traced_server, fixture, workload, seed, fixed_stream, search=False, mark=True
        )
        check_session(fixture, workload, seed, traced, verdicts, "traced")
        doc = json.loads((WORK / "spans.json").read_text())
        layers, stage_sum = serve_layers(doc)
        paper = run_paper(True, verdicts)
        untraced_p50 = latency["lat_p50_ms"][0]
        traced_p50 = fixed_metrics(traced)["lat_p50_ms"]
        qps = session.qps_at_slo
        verdicts.check(qps is not None, "SLO search found a passing rate")
        out = {
            **layers,
            **paper_layers(paper),
            "load.late_p99_ms": (
                quantile(session.fixed.late, 0.99) * 1e3, "ms", len(session.fixed.late),
            ),
            "load.connections_max": (float(session.connections_max), "count", 1),
            "load.lat_p95_ms": latency["load.lat_p95_ms"],
            "load.qps_at_slo": (qps if qps is not None else float("nan"), "1/s", len(session.steps)),
            "paper.setup_s": (paper["setup_s"], "s", 1),
            "paper.peak_rss_mb": (paper["peak_rss_mb"], "MB", 1),
            "trace.lat_p50_ms": traced_p50,
            "trace.overhead_pct": (
                (traced_p50[0] / untraced_p50 - 1.0) * 100, "%", traced_p50[2],
            ),
            "trace.stage_cover_pct": (stage_sum * 1e3 / untraced_p50 * 100, "%", traced_p50[2]),
            **deltas,
        }
        print_table("per-layer (traced fixed-rate phase unless noted)", out)
        print(f"\n  untraced lat_p50_ms {untraced_p50:.4f}, traced {traced_p50[0]:.4f}")
        for rate, passed, result, _ in session.steps:
            lat = result.ok_latencies()
            print(f"  slo step {rate:9.2f} req/s  p{round(TAIL_Q * 100)} "
                  f"{quantile(lat, TAIL_Q) * 1e3:9.2f} ms  n={len(lat)}  "
                  f"{'pass' if passed else 'fail'}")
    for name, (value, _unit, _n) in out.items():
        if not math.isfinite(value):
            verdicts.check(False, f"{name} was measured")
            out[name] = (0.0, _unit, _n)
    print("\nchecks:")
    for note in verdicts.notes:
        print(f"  {note}")
    return {
        "correct": verdicts.failed == 0,
        "attempted": max(1, verdicts.attempted),
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in out.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
