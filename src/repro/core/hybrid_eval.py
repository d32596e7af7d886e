"""Hybrid vs DHT evaluation — §V/§VII text claims (experiment T-HYBRID).

The paper's argument chain:

1. at TTL 3 a flood reaches over a thousand nodes (§V);
2. under the measured Zipf placement that flood succeeds only ~5%,
   where a uniform model with 0.1% replication predicts ~62%;
3. therefore a hybrid system pays the flood *and* the DHT lookup for
   ~95% of queries — strictly worse than the DHT alone.

This experiment measures each quantity on the calibrated simulator and
assembles the comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.experiment import Fig8TopologyConfig, build_fig8_topology
from repro.core.flood_sim import PlacementSpec, run_flood_success
from repro.dht.chord import ChordRing
from repro.overlay.flooding import FloodDepthCache, flood_depths
from repro.overlay.topology import Topology
from repro.hybrid.cost_model import predicted_uniform_success
from repro.runtime.parallel import pmap, resolve_workers
from repro.runtime.shm import SharedTopology, SharedTopologySpec, attach_topology
from repro.utils.rng import derive

__all__ = ["HybridEvalConfig", "HybridEvalResult", "evaluate_hybrid"]


@dataclass(frozen=True)
class HybridEvalConfig:
    """Parameters of the hybrid-vs-DHT comparison."""

    topology: Fig8TopologyConfig = field(default_factory=Fig8TopologyConfig)
    flood_ttl: int = 3
    n_eval_objects: int = 150
    n_flood_probes: int = 30
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    dht_lookup_samples: int = 200
    #: mean distinct terms per query, for DHT cost scaling.
    terms_per_query: float = 2.5
    seed: int = 0
    #: process-pool width for the flood probes and per-object floods
    #: (1 = serial, 0 = one per CPU); results are worker-count
    #: independent.
    n_workers: int = 1


@dataclass(frozen=True)
class HybridEvalResult:
    """Every quantity of the §V comparison."""

    flood_ttl: int
    nodes_reached: float
    flood_messages: float
    flood_success: float
    predicted_success_0p1pct: float
    dht_hops_per_lookup: float
    dht_messages_per_query: float
    hybrid_messages_per_query: float
    dht_only_messages_per_query: float

    @property
    def hybrid_overhead(self) -> float:
        """Hybrid cost relative to the pure DHT."""
        return self.hybrid_messages_per_query / self.dht_only_messages_per_query

    def as_rows(self) -> list[tuple[str, str]]:
        """Human-readable (metric, value) rows."""
        return [
            ("flood TTL", str(self.flood_ttl)),
            ("nodes reached by flood", f"{self.nodes_reached:.0f}"),
            ("flood messages", f"{self.flood_messages:.0f}"),
            ("flood success (Zipf placement)", f"{self.flood_success:.3f}"),
            ("success predicted by uniform 0.1% model", f"{self.predicted_success_0p1pct:.3f}"),
            ("DHT hops per lookup", f"{self.dht_hops_per_lookup:.2f}"),
            ("DHT messages per query", f"{self.dht_messages_per_query:.1f}"),
            ("hybrid messages per query", f"{self.hybrid_messages_per_query:.1f}"),
            ("DHT-only messages per query", f"{self.dht_only_messages_per_query:.1f}"),
            ("hybrid / DHT cost ratio", f"{self.hybrid_overhead:.1f}x"),
        ]


def _probe_fallback(topology: Topology, source: int, ttl: int) -> tuple[float, float]:
    """One probe flood: (peers reached, messages sent)."""
    depth, msgs = flood_depths(topology, source, ttl)
    return float(np.count_nonzero(depth >= 0) - 1), float(msgs)


def _probe_task(
    source: int,
    rng: np.random.Generator,
    *,
    spec: SharedTopologySpec,
    ttl: int,
) -> tuple[float, float]:
    """Worker task: one deterministic probe flood (``rng`` unused)."""
    return _probe_fallback(attach_topology(spec), source, ttl)


def evaluate_hybrid(config: HybridEvalConfig | None = None) -> HybridEvalResult:
    """Measure the hybrid-vs-DHT comparison on the calibrated simulator.

    ``config.n_workers > 1`` (or 0, one per CPU) fans the probe floods
    and the per-object success floods out over a process pool; every
    worker count yields the same result.
    """
    cfg = config or HybridEvalConfig()
    workers = resolve_workers(cfg.n_workers)
    topology = build_fig8_topology(cfg.topology)
    rng = derive(cfg.seed, "hybrid-eval")

    # Flood phase: reach and message cost at the hybrid's TTL.
    forwarding = np.flatnonzero(topology.forwards)
    sources = forwarding[rng.integers(0, forwarding.size, size=cfg.n_flood_probes)]
    source_list = [int(s) for s in sources]
    if workers == 1:
        # Serial path: probes share one BFS cache (repeated sources
        # flood once), with results identical to _probe_fallback.
        cache = FloodDepthCache(topology, max_entries=max(1, len(source_list)))
        probes = []
        for s in source_list:
            entry = cache.entry(s, cfg.flood_ttl)
            probes.append(
                (
                    float(entry.reached(cfg.flood_ttl) - 1),
                    float(entry.messages(cfg.flood_ttl)),
                )
            )
    else:
        with SharedTopology(topology) as share:
            task = partial(_probe_task, spec=share.spec, ttl=cfg.flood_ttl)
            probes = pmap(
                task,
                source_list,
                seed=cfg.seed,
                key="hybrid-probes",
                n_workers=workers,
            )
    reached = np.asarray([p[0] for p in probes])
    messages = np.asarray([p[1] for p in probes])

    # Flood success under the measured Zipf placement.
    curve = run_flood_success(
        topology,
        cfg.placement,
        ttls=(cfg.flood_ttl,),
        n_eval_objects=cfg.n_eval_objects,
        seed=cfg.seed,
        n_workers=workers,
    )
    flood_success = float(curve.success[0])

    # What the optimistic uniform model would have predicted.
    predicted = predicted_uniform_success(0.001, int(reached.mean()))

    # DHT lookup cost on a ring the size of the network.
    ring = ChordRing(topology.n_nodes, seed=cfg.seed)
    hops = ring.mean_lookup_hops(cfg.dht_lookup_samples, seed=cfg.seed)
    dht_per_query = hops * cfg.terms_per_query

    hybrid = float(messages.mean()) + (1.0 - flood_success) * dht_per_query
    return HybridEvalResult(
        flood_ttl=cfg.flood_ttl,
        nodes_reached=float(reached.mean()),
        flood_messages=float(messages.mean()),
        flood_success=flood_success,
        predicted_success_0p1pct=predicted,
        dht_hops_per_lookup=float(hops),
        dht_messages_per_query=float(dht_per_query),
        hybrid_messages_per_query=hybrid,
        dht_only_messages_per_query=float(dht_per_query),
    )
