"""Compare every search primitive on the same network and workload.

Plain flooding, QRP-pruned flooding, expanding ring, k-walker random
walk, Gia-style capacity-biased walk, pure DHT keyword lookup (naive
and Bloom-assisted), and the flood-then-DHT hybrid — success and
message cost side by side on the calibrated trace.

    python examples/search_strategies.py
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_percent, format_table
from repro.dht import ChordRing, KeywordIndex
from repro.hybrid import HybridSearch
from repro.overlay.content import SharedContentIndex
from repro.overlay.expanding_ring import expanding_ring_search
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.qrp import QrpTables, qrp_flood
from repro.overlay.topology import two_tier_gnutella
from repro.utils.rng import make_rng


def main() -> None:
    print("Building network, content index and DHT...")
    bundle = build_trace_bundle()
    content = SharedContentIndex(bundle.trace)
    topology = two_tier_gnutella(content.n_peers, ultrapeer_fraction=0.3, seed=31)
    network = UnstructuredNetwork(topology, content)
    ring = ChordRing(content.n_peers, seed=31)
    index = KeywordIndex(ring, content)
    hybrid = HybridSearch(network, index, flood_ttl=3)
    qrp = QrpTables(content)

    workload = bundle.workload
    rng = make_rng(31)
    n_up = int(topology.forwards.sum())
    n_queries = 60
    picks = rng.integers(0, workload.n_queries, size=n_queries)
    sources = rng.integers(0, n_up, size=n_queries)

    stats: dict[str, list[tuple[bool, float]]] = {}

    def record(name: str, ok: bool, msgs: float) -> None:
        stats.setdefault(name, []).append((ok, msgs))

    print(f"Running {n_queries} real queries through each strategy...")
    for qi, src in zip(picks, sources):
        words = workload.query_words(int(qi))
        src = int(src)

        flood3 = network.query_flood(src, words, ttl=3)
        record("flood (TTL 3)", flood3.succeeded, flood3.messages)

        q = qrp_flood(topology, qrp, src, words, ttl=3)
        hits = content.peer_results(
            words, np.isin(np.arange(content.n_peers), q.delivered)
        )
        record("flood + QRP (TTL 3)", hits.size > 0, q.messages)

        ring_res = expanding_ring_search(network, src, words, ttl_schedule=(1, 2, 3))
        record("expanding ring", ring_res.succeeded, ring_res.messages)

        walk = network.query_walk(src, words, walkers=16, ttl=64, seed=int(qi))
        record("16-walker random walk", walk.succeeded, walk.messages)

        dht = index.query(words, src)
        record("DHT keyword lookup", dht.succeeded, dht.messages)

        dhtb = index.query(words, src, intersection="bloom")
        record("DHT + Bloom intersection", dhtb.succeeded, dhtb.messages)

        hy = hybrid.query(src, words)
        record("hybrid flood->DHT", hy.succeeded, hy.messages)

    rows = []
    for name, outcomes in stats.items():
        oks = np.array([o for o, _ in outcomes])
        msgs = np.array([m for _, m in outcomes])
        rows.append((name, format_percent(oks.mean()), f"{msgs.mean():,.0f}"))
    print()
    print(
        format_table(
            ["strategy", "success", "mean messages"],
            rows,
            title="Search strategies on the calibrated workload",
        )
    )
    print(
        "\nReading: at this 1,000-peer demo scale a TTL-3 flood covers most "
        "of the network, so success rates converge to the workload's "
        "matchable fraction; the *costs* tell the story.  QRP trims the "
        "flood's leaf hop, naive DHT lookups pay for shipping popular "
        "terms' posting lists, Bloom intersection makes the DHT the "
        "cheapest strategy, and the hybrid pays for both phases on the "
        "~75% of queries the flood cannot resolve — the paper's §V/§VII "
        "conclusion (Fig. 8 shows the 40,000-node version, where the "
        "flood's success collapses too)."
    )


if __name__ == "__main__":
    main()
