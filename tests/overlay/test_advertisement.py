"""Tests for repro.overlay.advertisement — ASAP-style search."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.overlay.advertisement import (
    AdStore,
    AdvertisementConfig,
    simulate_advertisement,
)


class TestAdStore:
    def test_push_and_lookup(self):
        store = AdStore(5)
        store.push(provider=3, terms=np.array([10, 11]), targets=np.array([0, 1]))
        assert store.local_providers(0, np.array([10])) == {3}
        assert store.local_providers(0, np.array([10, 11])) == {3}
        assert store.local_providers(2, np.array([10])) == set()

    def test_and_semantics(self):
        store = AdStore(3)
        store.push(1, np.array([5]), np.array([0]))
        store.push(2, np.array([5, 6]), np.array([0]))
        assert store.local_providers(0, np.array([5, 6])) == {2}
        assert store.local_providers(0, np.array([5])) == {1, 2}

    def test_missing_term_empty(self):
        store = AdStore(2)
        store.push(0, np.array([1]), np.array([1]))
        assert store.local_providers(1, np.array([1, 99])) == set()

    def test_ads_counted(self):
        store = AdStore(4)
        store.push(0, np.array([1]), np.array([1, 2, 3]))
        assert store.ads_pushed == 3


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(ad_capacity=0), "ad_capacity"),
            (dict(fanout=0), "fanout"),
            (dict(policy="bogus"), "policy"),
            (dict(train_fraction=1.0), "train_fraction"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AdvertisementConfig(**kwargs)


class TestSimulation:
    @pytest.fixture(scope="class")
    def reports(self, small_workload, small_content):
        return {
            policy: simulate_advertisement(
                small_workload,
                small_content,
                AdvertisementConfig(policy=policy, ad_capacity=8, fanout=15),
                max_queries=1_200,
                seed=2,
            )
            for policy in ("content", "query")
        }

    def test_hit_rates_in_range(self, reports):
        for rep in reports.values():
            assert 0.0 <= rep.local_hit_rate <= 1.0
            assert 0.0 <= rep.precision <= 1.0

    def test_query_centric_ads_win(self, reports):
        """The paper's position, in advertisement form."""
        assert reports["query"].local_hit_rate > reports["content"].local_hit_rate

    def test_precision_high(self, reports):
        """Term-set ads rarely name a provider that doesn't match."""
        for rep in reports.values():
            if rep.local_hit_rate > 0:
                assert rep.precision > 0.7

    def test_larger_fanout_more_hits(self, small_workload, small_content):
        small = simulate_advertisement(
            small_workload, small_content,
            AdvertisementConfig(fanout=5), max_queries=800, seed=3,
        )
        large = simulate_advertisement(
            small_workload, small_content,
            AdvertisementConfig(fanout=40), max_queries=800, seed=3,
        )
        assert large.local_hit_rate > small.local_hit_rate

    def test_deterministic(self, small_workload, small_content):
        a = simulate_advertisement(
            small_workload, small_content, max_queries=500, seed=5
        )
        b = simulate_advertisement(
            small_workload, small_content, max_queries=500, seed=5
        )
        assert a == b

    def test_reports_pinned(self, small_workload, small_content):
        """Every ``AdReport`` field, per policy at two capacities, bit for bit."""
        h = hashlib.sha256()
        for policy in ("content", "query"):
            for capacity in (8, 32):
                report = simulate_advertisement(
                    small_workload,
                    small_content,
                    AdvertisementConfig(policy=policy, ad_capacity=capacity, fanout=15),
                    max_queries=1_200,
                    seed=2,
                )
                for f in dataclasses.fields(report):
                    v = getattr(report, f.name)
                    h.update(
                        f"{f.name}={v.hex() if isinstance(v, float) else repr(v)};".encode()
                    )
        assert h.hexdigest() == (
            "23e865549cb2ae61bab0b4db7bbf32024eb294bfec585946ee8cec16b387960c"
        )
