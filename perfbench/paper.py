"""Paper-pipeline child: the computation behind `repro fig 8`, then
`repro report`, timed in a process of their own.

    python perfbench/paper.py --out F [--trace]

Writes a JSON document with the moment the inputs were loaded
(monotonic clock, comparable with the parent's spawn time), the wall
time of each half, the process's peak RSS, the Fig. 8 curve digest and
every claim's verdict.  With ``--trace`` it adds the stage spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CACHE_DIR, use_program, vm_hwm_mb  # noqa: E402
from tracing import SpanStore, install_paper  # noqa: E402


def curves_digest(result: object) -> str:
    """SHA-256 over every curve's label, TTLs and success values."""
    h = hashlib.sha256()
    for curve in result.curves:  # type: ignore[attr-defined]
        h.update(curve.label.encode())
        h.update(repr(curve.ttls).encode())
        h.update(curve.success.astype("<f8").tobytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    use_program()
    store = SpanStore()
    from repro.core.experiment import (
        Fig8TopologyConfig,
        build_fig8_topology,
        build_trace_bundle,
    )
    from repro.core.flood_sim import FloodSimConfig, run_fig8
    from repro.core.paper_report import build_report

    if args.trace:
        install_paper(store)
    build_fig8_topology(Fig8TopologyConfig())
    build_trace_bundle()
    loaded_at = time.monotonic()

    # The cached result is deleted first, so none is served from it.
    shutil.rmtree(CACHE_DIR / "fig8-result", ignore_errors=True)
    fig8_start = time.monotonic()
    result = run_fig8(FloodSimConfig(n_eval_objects=80, seed=0, n_workers=1))
    fig8_end = time.monotonic()

    t0 = time.perf_counter()
    claims = build_report()
    report_s = time.perf_counter() - t0

    doc = {
        "loaded_at": loaded_at,
        "fig8_s": fig8_end - fig8_start,
        "fig8_window": [fig8_start, fig8_end],
        "report_s": report_s,
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
        "curves_digest": curves_digest(result),
        "claims": [[c.ident, c.statement, bool(c.holds)] for c in claims],
        "spans": store.spans,
    }
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
