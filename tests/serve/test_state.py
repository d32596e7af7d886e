"""ServiceState.from_config: a start-up loads the topology and the index only."""

from __future__ import annotations

import numpy as np

import repro.core.experiment as experiment
from repro.core.experiment import build_content_index
from repro.obs import metrics
from repro.overlay.content import intersect_postings
from repro.serve.http import json_bytes
from repro.serve.load import build_query_pool
from repro.serve.state import ServiceConfig, ServiceState
from repro.utils.rng import make_rng

from tests.conftest import SERVICE_NODES
from tests.serve.conftest import direct_reply, make_search

CONFIG = ServiceConfig(n_nodes=SERVICE_NODES)


def _no_bundle(*args, **kwargs):
    raise AssertionError("from_config loaded the trace bundle")


def _cache_delta(before) -> tuple[int, int]:
    """(hits, misses) of the artifact cache since ``before``."""
    delta = metrics().delta_since(before)
    return delta.counter("artifact_cache.hits"), delta.counter("artifact_cache.misses")


class TestFromConfig:
    def test_warm_start_reads_two_artifacts(self, warm_service_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm_service_cache.path))
        monkeypatch.setattr(experiment, "build_trace_bundle", _no_bundle)
        before = metrics().snapshot()
        with ServiceState.from_config(CONFIG) as state:
            assert state.n_nodes == SERVICE_NODES
        assert _cache_delta(before) == (2, 0)

    def test_replies_equal_an_in_memory_state(self, warm_service_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm_service_cache.path))
        warm = warm_service_cache
        pool = build_query_pool(warm.bundle.workload, 16)
        rng = make_rng(5)
        requests = [
            make_search(
                pool,
                sources=tuple(int(s) for s in rng.integers(0, SERVICE_NODES, 8)),
                picks=tuple(int(p) for p in rng.integers(0, len(pool), 8)),
                ttl_schedule=schedule,
            )
            for schedule in ((1,), (3,), (1, 2, 3, 5))
        ]
        queries = tuple(tuple(q) for q in pool)
        with (
            ServiceState.from_config(CONFIG) as loaded,
            ServiceState(warm.topology, warm.content) as built,
        ):
            for request in requests:
                assert json_bytes(direct_reply(loaded, request)) == json_bytes(
                    direct_reply(built, request)
                )
            assert loaded.resolvability(queries) == built.resolvability(queries)
            assert loaded.flood_probe(7, 4) == built.flood_probe(7, 4)

    def test_cold_start_writes_the_key_the_bundle_reads(
        self, warm_service_cache, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(experiment, "build_trace_bundle", _no_bundle)
        with ServiceState.from_config(CONFIG) as state:
            generated = state.content
        before = metrics().snapshot()
        build_content_index(warm_service_cache.bundle.trace)
        assert _cache_delta(before) == (1, 0)
        # The index over the trace generated from the config is the one
        # over the bundle's own trace, array for array.
        reference = warm_service_cache.content
        assert generated.term_index.terms.strings() == reference.term_index.terms.strings()
        for name in ("posting_offsets", "posting_instances", "instance_peer"):
            np.testing.assert_array_equal(
                getattr(generated.dense_postings(), name),
                getattr(reference.dense_postings(), name),
            )

    def test_index_keeps_counts_not_the_trace(self, warm_service_cache):
        content = warm_service_cache.content
        assert not hasattr(content, "trace")
        assert content.n_instances == warm_service_cache.bundle.trace.n_instances
        assert type(content.n_instances) is int


class TestMatchCacheRows:
    def test_cached_rows_outlive_the_state(self, warm_service_cache, monkeypatch):
        # The index outlives the state; its cached rows must stay the
        # scalar path's rows after the state is gone.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm_service_cache.path))
        pool = build_query_pool(warm_service_cache.bundle.workload, 512)
        rng = make_rng(9)
        with ServiceState.from_config(CONFIG) as state:
            content = state.content
            keys = [content.query_key(q) for q in pool]
            state.engine.evaluate_keys(
                rng.integers(0, SERVICE_NODES, size=len(keys)),
                keys,
                ttl_schedule=(1, 3),
            )
            state.resolvability(tuple(tuple(q) for q in pool[:64]))
        assert len(content._match_cache) > 100
        for key, row in content._match_cache.items():
            expected = intersect_postings(
                content._posting_offsets, content._posting_instances, key
            )
            np.testing.assert_array_equal(row, expected)
