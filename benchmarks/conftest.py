"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures (see
DESIGN.md §4 for the experiment index) and prints the rows/series the
paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

Expensive inputs are session-scoped; each bench times only its own
experiment via ``benchmark.pedantic(..., rounds=1)`` because these are
end-to-end experiment regenerations, not microbenchmarks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

import pytest

from repro.core.experiment import TraceBundle, build_content_index, build_trace_bundle
from repro.overlay.content import SharedContentIndex
from repro.tracegen import presets
from repro.tracegen.catalog import MusicCatalog
from repro.tracegen.itunes_trace import ITunesShareTrace


def peak_rss_bytes() -> int:
    """Process-lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is a high-water mark: it only ever grows, so a value
    recorded after a benchmark bounds that benchmark's footprint from
    above (plus whatever ran before it).  Linux reports KiB, macOS
    bytes.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Write the unified ``BENCH_perf.json`` after a benchmark run.

    One artifact joins the pytest-benchmark timing stats with the
    process metrics registry (cache hit rates, flood message totals,
    pmap tallies) accumulated while the benches ran, so a perf
    regression can be attributed — e.g. "mean time doubled *and* the
    flood cache stopped hitting".  Skipped when no benchmarks ran
    (plain test sessions never see this hook: ``testpaths`` excludes
    ``benchmarks/``).  Set ``REPRO_BENCH_OUT`` to change the path.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None)
    if not benchmarks:
        return
    from repro.obs import metrics

    rows = []
    for bench in benchmarks:
        try:
            row = bench.as_dict(include_data=False, flat=False, stats=True)
        except (AttributeError, TypeError):  # third-party shape drift
            row = {"fullname": getattr(bench, "fullname", "?")}
        rows.append(row)
    doc = {
        "schema": "repro-bench/1",
        "exitstatus": int(exitstatus),
        "benchmarks": rows,
        "metrics": metrics().snapshot().as_dict(),
        # Session-wide memory high-water mark (see docs/performance.md,
        # "Memory budget").
        "peak_rss_bytes": peak_rss_bytes(),
    }
    out = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_perf.json"))
    out.write_text(json.dumps(doc, indent=2, sort_keys=True))


@pytest.fixture(scope="session")
def bundle() -> TraceBundle:
    return build_trace_bundle()


@pytest.fixture(scope="session")
def content(bundle: TraceBundle) -> SharedContentIndex:
    return build_content_index(bundle.trace)


@pytest.fixture(scope="session")
def itunes() -> ITunesShareTrace:
    catalog = MusicCatalog(presets.CATALOG_ITUNES)
    return ITunesShareTrace(catalog, presets.ITUNES_DEFAULT)
