"""Shared fixtures.

Expensive artifacts (the calibrated default traces, the content index)
are session-scoped: they are deterministic pure functions of their
seeds, so sharing them across tests changes nothing but runtime.
Small fixtures are built fresh where mutation matters.

Every test runs under :func:`_shm_owners_released`, which fails a test
that drops a shared-memory owner without ``close()`` or leaves a
segment in ``/dev/shm`` that no live owner holds.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiment import (
    Fig8TopologyConfig,
    TraceBundle,
    build_content_index,
    build_fig8_topology,
    build_trace_bundle,
)
from repro.obs import metrics
from repro.overlay.content import SharedContentIndex
from repro.overlay.topology import Topology, flat_random, two_tier_gnutella
from repro.runtime import shm
from repro.tracegen.catalog import CatalogConfig, MusicCatalog
from repro.tracegen.gnutella_trace import GnutellaShareTrace, GnutellaTraceConfig
from repro.tracegen.itunes_trace import ITunesShareTrace, ITunesTraceConfig
from repro.tracegen.query_trace import QueryWorkload, QueryWorkloadConfig
from repro.utils.rng import make_rng


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory: pytest.TempPathFactory):
    """Point the artifact cache at a per-session temp dir.

    The suite still exercises the cache code paths (hits within the
    session), but never reads from or pollutes the developer's real
    ``~/.cache/repro``, whose entries could predate the code under
    test.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


_SHM_DIR = "/dev/shm"


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "unclosed_owners(n): the test drops n shm owners without close() on purpose",
    )


def _segment_names() -> set[str]:
    """Segment names ``multiprocessing.shared_memory`` made in ``/dev/shm``."""
    if not os.path.isdir(_SHM_DIR):
        return set()
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}


def _held_segment_names() -> set[str]:
    """Segments held by live, unclosed owners in this process."""
    return {
        segment.name
        for owner in list(shm._LIVE_OWNERS)
        if not owner._closed
        for segment in owner._segments
    }


@pytest.fixture(autouse=True)
def _shm_owners_released(request: pytest.FixtureRequest):
    """Fail the test if it leaked a shared-memory owner or segment.

    Two checks, after the test body:

    * ``shm.unclosed_owners`` moved: the test dropped an owner without
      ``close()``, and the owner's garbage-collection net closed it;
    * a ``psm_*`` segment appeared in ``/dev/shm`` that no live,
      unclosed owner in this process holds.

    Owners held by longer-scoped fixtures (the package-scoped
    ``serve_state``) stay legal.  A test that drops an owner on purpose
    declares how many with ``@pytest.mark.unclosed_owners(n)``.
    """
    marker = request.node.get_closest_marker("unclosed_owners")
    expected = marker.args[0] if marker else 0
    before_count = metrics().counter("shm.unclosed_owners")
    before_names = _segment_names()
    yield
    appeared = _segment_names() - before_names
    if appeared:
        # An owner dropped inside a reference cycle is still live until
        # the collector runs; collect so its net runs in this test.
        gc.collect()
        appeared = _segment_names() - before_names
    problems = []
    moved = metrics().counter("shm.unclosed_owners") - before_count
    if moved != expected:
        problems.append(
            f"shm.unclosed_owners moved by {moved} (expected {expected}): "
            "an owner was dropped without close()"
        )
    orphans = appeared - _held_segment_names()
    if orphans:
        problems.append(
            f"/dev/shm segments left that no live owner holds: {sorted(orphans)}"
        )
    if problems:
        pytest.fail("; ".join(problems), pytrace=False)


@pytest.fixture(scope="session")
def small_catalog() -> MusicCatalog:
    """A fast catalog for unit tests (not calibration-accurate)."""
    return MusicCatalog(
        CatalogConfig(n_songs=3_000, n_artists=300, lexicon_size=4_000, seed=11)
    )


@pytest.fixture(scope="session")
def small_trace(small_catalog: MusicCatalog) -> GnutellaShareTrace:
    """A small Gnutella trace (~6k instances)."""
    return GnutellaShareTrace(
        small_catalog,
        GnutellaTraceConfig(n_peers=120, mean_library_size=50.0, seed=11),
    )


@pytest.fixture(scope="session")
def small_itunes(small_catalog: MusicCatalog) -> ITunesShareTrace:
    """A small iTunes trace."""
    return ITunesShareTrace(
        small_catalog, ITunesTraceConfig(n_users=40, mean_library_size=120.0, seed=11)
    )


@pytest.fixture(scope="session")
def small_workload(small_trace: GnutellaShareTrace) -> QueryWorkload:
    """A small query workload over the small trace's terms."""
    from repro.tracegen.query_trace import file_term_peer_counts

    counts = file_term_peer_counts(small_trace)
    return QueryWorkload(
        small_trace.catalog,
        counts,
        QueryWorkloadConfig(
            n_queries=20_000, vocab_size=800, popular_file_pool=400, seed=11
        ),
    )


@pytest.fixture(scope="session")
def default_bundle() -> TraceBundle:
    """The calibrated default bundle (the paper-scale-shape traces)."""
    return build_trace_bundle()


@pytest.fixture(scope="session")
def default_content(default_bundle: TraceBundle) -> SharedContentIndex:
    """Content index over the default trace."""
    return SharedContentIndex(default_bundle.trace)


@pytest.fixture(scope="session")
def small_content(small_trace: GnutellaShareTrace) -> SharedContentIndex:
    """Content index over the small trace."""
    return SharedContentIndex(small_trace)


#: Node (and trace peer) count of the service the start-up tests load.
SERVICE_NODES = 300


@dataclass(frozen=True)
class WarmCache:
    """An artifact cache directory and what warming it built in memory."""

    path: Path
    topology: Topology
    bundle: TraceBundle
    content: SharedContentIndex


@pytest.fixture(scope="session")
def warm_service_cache(tmp_path_factory: pytest.TempPathFactory) -> WarmCache:
    """A private cache holding what ``ServiceConfig(n_nodes=300)`` loads.

    Warmed the way ``perfbench/streams.py::fill_cache`` warms its own:
    the topology, the trace bundle, then the index over the bundle's
    trace.
    """
    path = tmp_path_factory.mktemp("service-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(path))
        topology = build_fig8_topology(Fig8TopologyConfig(n_nodes=SERVICE_NODES))
        bundle = build_trace_bundle(
            trace_config=GnutellaTraceConfig(n_peers=SERVICE_NODES)
        )
        content = build_content_index(bundle.trace)
    return WarmCache(path, topology, bundle, content)


@pytest.fixture(scope="session")
def ring_topology() -> Topology:
    """A 12-node cycle — hand-checkable flooding distances."""
    import networkx as nx

    from repro.overlay.topology import from_networkx

    return from_networkx(nx.cycle_graph(12))


@pytest.fixture(scope="session")
def small_two_tier() -> Topology:
    """A 600-node two-tier topology."""
    return two_tier_gnutella(600, seed=5)


@pytest.fixture(scope="session")
def small_flat() -> Topology:
    """A 300-node flat random topology."""
    return flat_random(300, 6.0, seed=5)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return make_rng(1234)
