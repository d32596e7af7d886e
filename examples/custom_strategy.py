"""Extending the harness: plug a custom search strategy into the replay.

Any object with a ``name`` and a ``search(source, terms) ->
(succeeded, messages)`` method slots into :func:`repro.core.replay`.
This example builds a "synopsis-first flood": consult one-hop synopses
and flood with a tiny TTL only toward claiming neighbors — then races
it against the stock strategies on the same query sample.

    python examples/custom_strategy.py
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import build_trace_bundle
from repro.core.reporting import format_table
from repro.core.replay import DhtStrategy, FloodStrategy, replay
from repro.core.synopsis import PeerSynopses
from repro.dht import ChordRing, KeywordIndex
from repro.overlay.content import SharedContentIndex
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.topology import flat_random


class SynopsisFirstFlood:
    """Probe synopsis-claiming neighbors directly; flood only on miss."""

    name = "synopsis-first flood"

    def __init__(self, network: UnstructuredNetwork, capacity: int = 64) -> None:
        self.network = network
        content = network.content
        self.synopses = PeerSynopses(content.n_peers, capacity)
        # Advertise every peer's most locally-frequent terms.
        terms = content._posting_terms
        peers = content.instance_peer[content._posting_instances]
        for p in range(content.n_peers):
            mine = terms[peers == p]
            if mine.size:
                values, counts = np.unique(mine, return_counts=True)
                top = values[np.argsort(counts)[::-1][:capacity]]
                self.synopses.add(p, top)

    def search(self, source: int, terms: list[str]) -> tuple[bool, float]:
        content = self.network.content
        ids = [content.term_id(t) for t in terms]
        messages = 0.0
        if all(i is not None for i in ids) and ids:
            claim = self.synopses.peers_claiming(np.asarray(ids))
            topo = self.network.topology
            one_hop = topo.neighbors_of(source)
            two_hop = np.unique(
                np.concatenate([topo.neighbors_of(int(v)) for v in one_hop])
                if one_hop.size
                else one_hop
            )
            candidates = np.unique(np.concatenate([one_hop, two_hop]))
            promising = candidates[claim[candidates]]
            if promising.size:
                messages += promising.size  # direct probes
                mask = np.zeros(content.n_peers, dtype=bool)
                mask[promising] = True
                hits = content.peer_results(terms, mask)
                if hits.size:
                    return True, messages
        out = self.network.query_flood(source, terms, ttl=2)
        return out.succeeded, messages + out.messages


def main() -> None:
    print("Building the stack...")
    bundle = build_trace_bundle()
    content = SharedContentIndex(bundle.trace)
    network = UnstructuredNetwork(flat_random(content.n_peers, 8.0, seed=3), content)
    index = KeywordIndex(ChordRing(content.n_peers, seed=3), content)

    strategies = [
        FloodStrategy(network, ttl=2),
        SynopsisFirstFlood(network),
        DhtStrategy(index),
    ]
    print("Replaying 80 queries through each strategy...")
    results = replay(bundle, strategies, n_queries=80, seed=3)
    print()
    print(
        format_table(
            ["strategy", "queries", "success", "fallback", "mean msgs", "p50", "p95"],
            [s.as_row() for s in results],
            title="Custom strategy vs the stock ones (identical sample)",
        )
    )


if __name__ == "__main__":
    main()
