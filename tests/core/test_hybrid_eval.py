"""Tests for repro.core.hybrid_eval — the §V/§VII comparison."""

from __future__ import annotations

import pytest

from repro.core.hybrid_eval import HybridEvalConfig, evaluate_hybrid


@pytest.fixture(scope="module")
def result():
    return evaluate_hybrid(HybridEvalConfig(n_eval_objects=60, n_flood_probes=20))


class TestHybridClaims:
    def test_flood_reaches_over_a_thousand(self, result):
        assert result.nodes_reached > 900

    def test_zipf_success_near_5pct(self, result):
        assert 0.02 <= result.flood_success <= 0.10

    def test_uniform_model_predicts_over_60pct(self, result):
        assert 0.5 <= result.predicted_success_0p1pct <= 0.75

    def test_overestimate_factor_order_of_magnitude(self, result):
        """Prior work overestimated success by ~12x (62% vs 5%)."""
        assert result.predicted_success_0p1pct / result.flood_success > 5

    def test_hybrid_costs_more_than_dht(self, result):
        assert result.hybrid_messages_per_query > result.dht_only_messages_per_query
        assert result.hybrid_overhead > 5

    def test_dht_hops_logarithmic(self, result):
        # 0.5*log2(40,000) ~ 7.6.
        assert 4 <= result.dht_hops_per_lookup <= 14

    def test_parallel_probes_match_serial(self, result):
        # Workers read the published topology.
        parallel = evaluate_hybrid(
            HybridEvalConfig(n_eval_objects=60, n_flood_probes=20, n_workers=2)
        )
        assert parallel == result

    def test_rows_render(self, result):
        rows = result.as_rows()
        assert len(rows) == 10
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in rows)
