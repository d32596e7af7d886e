"""Traced launcher: the service `repro serve` runs, with layer spans.

Starts the same ``ServiceState`` and ``OverlayQueryServer`` as
``repro serve`` with its defaults, after wrapping the layer entry points
(see ``tracing.py``).  SIGUSR1 marks a window: the first signal
snapshots the program's metrics registry, the second stores the delta
since then.  On SIGTERM the server drains as usual and the launcher
writes its spans, counts, window marks and end-of-run state as JSON.

    python perfbench/traced_serve.py --ready-file F --spans-out S
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program  # noqa: E402
from tracing import SpanStore, install_serve, install_setup  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    use_program()
    store = SpanStore()
    install_setup(store)

    from repro.obs import completed_spans, metrics
    from repro.runtime.shm import cleanup_on_signal
    from repro.serve.server import OverlayQueryServer
    from repro.serve.service import ServicePolicy
    from repro.serve.state import ServiceConfig, ServiceState

    marks: list[float] = []
    window: dict = {}
    before = []

    def mark(signum: int, frame: object) -> None:
        marks.append(time.monotonic())
        if not before:
            before.append(metrics().snapshot())
        else:
            delta = metrics().delta_since(before[0])
            window.update(delta.as_dict())
            latency = delta.histogram("serve.latency.SearchRequest")
            window["server_p50_s"] = latency.quantile(0.5) if latency.count else None

    signal.signal(signal.SIGUSR1, mark)
    uninstall = cleanup_on_signal()
    try:
        with ServiceState.from_config(ServiceConfig()) as state:
            install_serve(store, state)
            server = OverlayQueryServer(state, policy=ServicePolicy(), port=0)

            def announce(srv: OverlayQueryServer) -> None:
                Path(args.ready_file).write_text(f"{srv.host} {srv.port}\n")

            asyncio.run(server.run(ready=announce))
            cache_entries = len(state.engine.flood_cache)
    finally:
        uninstall()
    doc = {
        "spans": store.spans,
        "events": store.events,
        "marks": marks,
        "window": window,
        "cache_entries": cache_entries,
        "spans_retained": len(completed_spans()),
    }
    Path(args.spans_out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
