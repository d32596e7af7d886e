"""Flood success-rate simulation — paper Fig. 8 (experiment FIG8).

The paper varies the query TTL on a 40,000-node Gnutella network and
compares success rates when objects are placed uniformly at random
(1/4/9/19/39 replicas) versus with the Zipf replica-count distribution
measured in the crawl (mean ≈ 5 replicas).  The headline: the Zipf
curve hugs the *lowest* uniform-replication curve, because the median
object has ~1 replica no matter how fat the head is.

Implementation note: instead of flooding from every candidate source,
we run one multi-source flood *from the replica set* per evaluated
object.  On an undirected topology with forwarding interiors, a source
``s`` finds a replica within TTL ``t`` iff ``depth(s) <= t`` in that
flood — so one flood yields the success probability over all sources
and all TTLs at once, and only its per-hop count of newly reached
ultrapeers matters.  :func:`~repro.overlay.flooding.flood_level_counts`
yields exactly those counts for 64 replica sets per pass over the
topology (one bit per flood), so a curve's floods run as a few such
passes instead of one BFS each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.experiment import Fig8TopologyConfig, build_fig8_topology
from repro.obs import span
# flood_depths is not called here; perfbench/tracing.py wraps this
# module's attribute, so the name stays bound.
from repro.overlay.flooding import flood_depths, flood_level_counts
from repro.overlay.topology import Topology
from repro.runtime.cache import cached_call, config_digest
from repro.runtime.parallel import pmap, resolve_workers
from repro.runtime.shm import SharedTopology, SharedTopologySpec, attach_topology
from repro.utils.rng import derive

__all__ = [
    "PlacementSpec",
    "zipf_replica_counts",
    "FloodSimConfig",
    "FloodSimCurve",
    "FloodSimResult",
    "run_flood_success",
    "run_fig8",
]


@dataclass(frozen=True)
class PlacementSpec:
    """How object replicas are placed.

    ``kind == "uniform"``: every object has exactly ``n_replicas``
    copies on uniformly random nodes.

    ``kind == "zipf"``: an object universe of ``universe`` objects has
    replica counts following a truncated Zipf with ``exponent``,
    floored at one copy and scaled so the mean is ``mean_replicas``
    (the paper's measured mean of 5).

    ``query_model`` selects which object a query targets:
    ``"uniform"`` (any existing object equally — the paper's setting),
    ``"popularity"`` (proportional to replica count — the optimistic
    assumption of prior work), or ``"mismatch"`` (Zipf query popularity
    *independently permuted* against replica counts — the paper's
    measured query/annotation disconnect).
    """

    kind: str = "zipf"
    n_replicas: int = 1
    universe: int = 10_000
    exponent: float = 1.0
    mean_replicas: float = 5.0
    query_model: str = "uniform"

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "zipf"):
            raise ValueError(f"unknown placement kind: {self.kind!r}")
        if self.query_model not in ("uniform", "popularity", "mismatch"):
            raise ValueError(f"unknown query model: {self.query_model!r}")
        if self.kind == "uniform" and self.n_replicas < 1:
            raise ValueError("uniform placement needs at least one replica")
        if self.kind == "zipf":
            if self.universe < 2:
                raise ValueError("zipf placement needs a universe of >= 2 objects")
            if self.mean_replicas < 1.0:
                raise ValueError("mean_replicas must be >= 1")

    def label(self) -> str:
        """Legend label matching the paper's Fig. 8."""
        if self.kind == "uniform":
            return f"Uniform ({self.n_replicas} replicas)"
        if self.query_model == "uniform":
            return "Zipf"
        return f"Zipf ({self.query_model} queries)"


def zipf_replica_counts(universe: int, exponent: float, mean_replicas: float) -> np.ndarray:
    """Integer replica counts: Zipf head, floor of one, target mean.

    Solves for the scale ``K`` such that
    ``mean(max(1, round(K / rank^s))) == mean_replicas`` by bisection;
    monotonicity in ``K`` makes this exact to integer rounding.
    """
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    weights = ranks**-exponent

    def mean_for(k: float) -> float:
        return float(np.maximum(1, np.rint(k * weights)).mean())

    lo, hi = 0.0, 4.0 * mean_replicas
    while mean_for(hi) < mean_replicas:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for sane inputs
            raise RuntimeError("replica-count calibration diverged")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mean_for(mid) < mean_replicas:
            lo = mid
        else:
            hi = mid
    return np.maximum(1, np.rint(hi * weights)).astype(np.int64)


@dataclass(frozen=True)
class FloodSimConfig:
    """Parameters of a Fig. 8 run.

    ``n_workers`` controls the process-pool fan-out of the per-object
    floods (1 = serial, 0 = one per CPU).  It is an execution knob
    only: every worker count produces bitwise-identical curves, and it
    is excluded from the artifact-cache key.
    """

    topology: Fig8TopologyConfig = field(default_factory=Fig8TopologyConfig)
    ttls: tuple[int, ...] = (1, 2, 3, 4, 5)
    n_eval_objects: int = 150
    uniform_replicas: tuple[int, ...] = (1, 4, 9, 19, 39)
    zipf: PlacementSpec = field(default_factory=PlacementSpec)
    seed: int = 0
    n_workers: int = 1


@dataclass(frozen=True)
class FloodSimCurve:
    """One success-rate curve."""

    label: str
    ttls: tuple[int, ...]
    success: np.ndarray


@dataclass(frozen=True)
class FloodSimResult:
    """All Fig. 8 curves."""

    curves: list[FloodSimCurve]

    def curve(self, label: str) -> FloodSimCurve:
        """Look a curve up by its legend label."""
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(label)


def _success_profiles(
    topology: Topology, replica_sets: list[np.ndarray], max_ttl: int
) -> np.ndarray:
    """P(flood from a random ultrapeer source finds a replica) per TTL.

    One row per replica set, from one lane flood from that set: a
    source succeeds at TTL ``t`` when its depth is within ``t``.
    Sources already holding a replica are excluded (they would not
    search for it): they are the ultrapeers the flood reaches at hop 0.
    """
    found = flood_level_counts(
        topology, replica_sets, max_ttl, among=topology.forwards
    )
    n_sources = int(np.count_nonzero(topology.forwards)) - found[:, :1]
    if not n_sources.all():
        raise ValueError("no eligible query sources")
    return np.cumsum(found[:, 1:], axis=1) / n_sources  # column t-1 => TTL t


def _success_profile(
    topology: Topology, replicas: np.ndarray, max_ttl: int
) -> np.ndarray:
    """:func:`_success_profiles` of a single replica set."""
    return _success_profiles(topology, [replicas], max_ttl)[0]


def _sample_objects(
    spec: PlacementSpec, counts: np.ndarray, n_eval: int, rng: np.random.Generator
) -> np.ndarray:
    if spec.query_model == "uniform":
        return rng.integers(0, counts.size, size=n_eval)
    if spec.query_model == "popularity":
        p = counts / counts.sum()
        return rng.choice(counts.size, size=n_eval, p=p)
    # mismatch: Zipf query popularity over a random permutation of the
    # objects — the query-popular objects are not the replicated ones.
    perm = rng.permutation(counts.size)
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    q = ranks**-spec.exponent
    q /= q.sum()
    return perm[rng.choice(counts.size, size=n_eval, p=q)]


def _replica_sets(
    spec: PlacementSpec, n_nodes: int, n_eval_objects: int, seed: int
) -> list[np.ndarray]:
    """Each evaluated object's replica set, drawn on the curve's stream."""
    rng = derive(seed, "floodsim", spec.label())
    if spec.kind == "uniform":
        sizes = np.full(n_eval_objects, spec.n_replicas, dtype=np.int64)
    else:
        counts = zipf_replica_counts(spec.universe, spec.exponent, spec.mean_replicas)
        objects = _sample_objects(spec, counts, n_eval_objects, rng)
        sizes = counts[objects]
    return [
        rng.choice(n_nodes, size=min(int(s), n_nodes), replace=False) for s in sizes
    ]


def _profiles_task(
    replica_sets: list[np.ndarray],
    *,
    spec: SharedTopologySpec,
    max_ttl: int,
) -> np.ndarray:
    """Worker task: one chunk of floods against the shared topology.

    The floods are a pure function of the (pre-drawn) replica sets —
    the replica placement randomness stays on the coordinator's stream,
    which is what makes serial and parallel runs bitwise-identical — so
    the task runs with ``needs_rng=False``.
    """
    return _success_profiles(attach_topology(spec), replica_sets, max_ttl)


def run_flood_success(
    topology: Topology,
    spec: PlacementSpec,
    *,
    ttls: tuple[int, ...] = (1, 2, 3, 4, 5),
    n_eval_objects: int = 150,
    seed: int = 0,
    n_workers: int = 1,
) -> FloodSimCurve:
    """Estimate the success-rate curve for one placement spec.

    All placement randomness is drawn up front on a single stream
    derived from ``seed`` (exactly the stream the serial implementation
    consumed); with ``n_workers > 1`` (or 0, one per CPU) only the
    deterministic per-object floods fan out, as that many contiguous
    chunks reading the topology from shared memory.
    """
    workers = resolve_workers(n_workers)
    if n_eval_objects < 1:
        raise ValueError(f"n_eval_objects must be positive, got {n_eval_objects}")
    max_ttl = int(max(ttls))
    replica_sets = _replica_sets(spec, topology.n_nodes, n_eval_objects, seed)
    if workers == 1 or len(replica_sets) <= 1:
        profiles = _success_profiles(topology, replica_sets, max_ttl)
    else:
        bounds = np.linspace(0, len(replica_sets), workers + 1).astype(np.int64)
        chunks = [
            replica_sets[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        with SharedTopology(topology) as share:
            task = partial(_profiles_task, spec=share.spec, max_ttl=max_ttl)
            profiles = np.concatenate(
                pmap(
                    task,
                    chunks,
                    seed=seed,
                    key=f"floodsim-bfs/{spec.label()}",
                    n_workers=workers,
                    needs_rng=False,
                )
            )
    acc = np.zeros(max_ttl, dtype=np.float64)
    for profile in profiles:
        acc += profile
    acc /= n_eval_objects
    ttl_idx = np.asarray(ttls, dtype=np.int64) - 1
    return FloodSimCurve(label=spec.label(), ttls=tuple(ttls), success=acc[ttl_idx])


#: Bump when the Fig. 8 computation changes meaning.
_FIG8_CACHE_VERSION = 1


def _curve_task(
    spec: PlacementSpec, *, topo_spec: SharedTopologySpec, cfg: FloodSimConfig
) -> FloodSimCurve:
    """Worker task: one whole curve, serially, on the shared topology."""
    return run_flood_success(
        attach_topology(topo_spec),
        spec,
        ttls=cfg.ttls,
        n_eval_objects=cfg.n_eval_objects,
        seed=cfg.seed,
    )


def _run_fig8_uncached(cfg: FloodSimConfig) -> FloodSimResult:
    workers = resolve_workers(cfg.n_workers)
    topology = build_fig8_topology(cfg.topology)
    specs = [cfg.zipf] + [
        PlacementSpec(kind="uniform", n_replicas=r) for r in cfg.uniform_replicas
    ]
    if workers == 1:
        return FloodSimResult(
            curves=[
                run_flood_success(
                    topology,
                    spec,
                    ttls=cfg.ttls,
                    n_eval_objects=cfg.n_eval_objects,
                    seed=cfg.seed,
                )
                for spec in specs
            ]
        )
    # One pool for the whole figure: each worker runs whole curves
    # against the topology published once.  A curve's floods depend
    # only on its own placement stream, so any split is bitwise equal.
    with SharedTopology(topology) as share:
        task = partial(_curve_task, topo_spec=share.spec, cfg=cfg)
        curves = pmap(
            task,
            specs,
            seed=cfg.seed,
            key="floodsim-curves",
            n_workers=workers,
            needs_rng=False,
        )
    return FloodSimResult(curves=curves)


def run_fig8(config: FloodSimConfig | None = None) -> FloodSimResult:
    """Regenerate every curve of the paper's Fig. 8.

    The result is served from the artifact cache when an identical
    config (ignoring the ``n_workers`` execution knob) was computed
    before; set ``REPRO_CACHE=off`` to force recomputation.
    """
    cfg = config or FloodSimConfig()
    digest = config_digest(cfg, exclude=("n_workers",))
    with span("fig8.run", n_eval_objects=cfg.n_eval_objects, workers=cfg.n_workers):
        return cached_call(
            "fig8-result", _FIG8_CACHE_VERSION, digest, lambda: _run_fig8_uncached(cfg)
        )
