"""Grow the network with the connection protocol, then measure it.

Instead of generating a topology in one shot, this example *grows* one
with the Gnutella connection protocol — bootstrap caches, Ping/Pong
discovery, ultrapeer election — then runs the reach measurement and a
search over the emergent two-tier graph, and knocks out a third of the
peers to watch the repair.

    python examples/emergent_network.py
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_percent, format_table
from repro.core.reach import ReachConfig, measure_reach
from repro.overlay.content import SharedContentIndex
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.protocol import GnutellaSession, ProtocolConfig


def main() -> None:
    bundle = build_trace_bundle()
    n = bundle.trace.n_peers

    print(f"Growing a {n}-peer network with the connection protocol...")
    session = GnutellaSession(
        ProtocolConfig(n_nodes=n, ultrapeer_fraction=0.3, seed=47)
    )
    session.form(rounds=25)
    topo = session.snapshot()
    degrees = topo.degree()
    print(
        format_table(
            ["metric", "value"],
            [
                ("largest component", format_percent(session.largest_component_fraction())),
                ("mean degree", f"{degrees.mean():.1f}"),
                ("elected ultrapeers", f"{len(session.ultrapeers):,}"),
            ],
            title="Emergent topology",
        )
    )

    print("\nTTL reach on the emergent graph:")
    reach = measure_reach(ReachConfig(ttls=(1, 2, 3, 4), n_sources=20), topology=topo)
    print(
        format_table(
            ["TTL", "reach", "nodes"],
            [(t, format_percent(f), f"{nd:,.0f}") for t, f, nd in reach.as_rows()],
        )
    )

    print("\nSearching over the emergent network:")
    content = SharedContentIndex(bundle.trace)
    network = UnstructuredNetwork(topo, content)
    counts = content.term_peer_counts()
    term = content.term_index.term_string(int(np.argmax(counts)))
    out = network.query_flood(int(next(iter(session.ultrapeers))), [term], ttl=3)
    print(
        f"  flooding {term!r} at TTL 3: {out.n_results} results from "
        f"{len(out.responding_peers)} peers ({out.messages} messages)"
    )

    print("\nMass departure (1/3 of peers) and repair:")
    for v in sorted(session.online)[::3]:
        session.leave(v)
    broken = session.largest_component_fraction()
    for _ in range(15):
        session.elect_ultrapeers()
        session.run_round()
    repaired = session.largest_component_fraction()
    print(
        f"  connectivity {format_percent(broken)} after departure -> "
        f"{format_percent(repaired)} after repair; "
        f"{len(session.ultrapeers):,} ultrapeers after re-election"
    )


if __name__ == "__main__":
    main()
