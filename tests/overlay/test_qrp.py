"""Tests for repro.overlay.qrp — the Query Routing Protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tokenize import tokenize_name
from repro.overlay.flooding import FloodDepthCache, flood
from repro.overlay.qrp import QrpTables, qrp_flood, qrp_flood_batch
from repro.overlay.topology import two_tier_gnutella
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def qrp_setup(small_content):
    topo = two_tier_gnutella(small_content.n_peers, ultrapeer_fraction=0.3, seed=6)
    tables = QrpTables(small_content, table_size=4096)
    return topo, tables


def real_terms(trace, n=1) -> list[str]:
    name = trace.names.lookup(int(trace.name_ids[0]))
    return tokenize_name(name)[:n]


class TestQrpTables:
    def test_table_size_power_of_two(self, small_content):
        with pytest.raises(ValueError, match="power of two"):
            QrpTables(small_content, table_size=1000)

    def test_no_false_negatives(self, qrp_setup, small_content, small_trace):
        """Every peer holding a matching file must pass the QRT check."""
        _, tables = qrp_setup
        terms = real_terms(small_trace, n=2)
        match = tables.peers_matching(terms)
        truth = small_content.matching_peers(terms)
        assert match[truth].all()

    def test_false_positive_rate_low(self, qrp_setup, small_content, small_trace):
        _, tables = qrp_setup
        terms = real_terms(small_trace, n=2)
        match = tables.peers_matching(terms)
        truth = np.zeros(small_content.n_peers, dtype=bool)
        truth[small_content.matching_peers(terms)] = True
        fp = float((match & ~truth).mean())
        assert fp < 0.25  # collisions exist but are bounded

    def test_unknown_term_rarely_matches(self, qrp_setup):
        _, tables = qrp_setup
        match = tables.peers_matching(["qqqq-unknown-term-qqqq"])
        assert match.mean() < 0.7  # a single slot can collide, all() can't be common

    def test_bits_set_somewhere(self, qrp_setup):
        _, tables = qrp_setup
        assert tables.table_bits.any()


class TestQrpFlood:
    def test_never_loses_results(self, qrp_setup, small_content, small_trace):
        """QRP must deliver to every leaf that actually matches."""
        topo, tables = qrp_setup
        terms = real_terms(small_trace, n=1)
        result = qrp_flood(topo, tables, 0, terms, ttl=3)
        plain = flood(topo, 0, 3)
        hits = small_content.match(terms)
        hit_peers = set(np.unique(small_content.instance_peer[hits]).tolist())
        reached_plain = set(plain.reached.tolist())
        delivered = set(result.delivered.tolist())
        # Matching peers the plain flood reached must still be delivered.
        assert (hit_peers & reached_plain) <= delivered

    def test_saves_messages(self, qrp_setup, small_trace):
        topo, tables = qrp_setup
        terms = real_terms(small_trace, n=2)
        result = qrp_flood(topo, tables, 0, terms, ttl=4)
        assert result.messages <= result.messages_without_qrp
        assert 0.0 <= result.savings < 1.0

    def test_rare_query_saves_more(self, qrp_setup, small_content):
        """Rarer terms prune more leaves."""
        topo, tables = qrp_setup
        counts = np.bincount(
            small_content._posting_terms, minlength=small_content.term_index.n_terms
        )
        rare = small_content.term_index.term_string(int(np.flatnonzero(counts == 1)[0]))
        popular = small_content.term_index.term_string(int(np.argmax(counts)))
        r_rare = qrp_flood(topo, tables, 0, [rare], ttl=4)
        r_pop = qrp_flood(topo, tables, 0, [popular], ttl=4)
        assert r_rare.savings >= r_pop.savings

    def test_ultrapeers_unaffected(self, qrp_setup, small_content):
        topo, tables = qrp_setup
        terms = ["qqqq-unknown-term-qqqq"]
        result = qrp_flood(topo, tables, 0, terms, ttl=3)
        plain = flood(topo, 0, 3)
        ups_plain = {v for v in plain.reached.tolist() if topo.forwards[v]}
        ups_qrp = {v for v in result.delivered.tolist() if topo.forwards[v]}
        assert ups_plain == ups_qrp

    def test_false_positives_counted(self, qrp_setup, small_trace):
        topo, tables = qrp_setup
        terms = real_terms(small_trace, n=1)
        result = qrp_flood(topo, tables, 0, terms, ttl=4)
        assert result.false_positive_deliveries >= 0
        assert result.false_positive_deliveries <= result.delivered.size


class TestQrpFloodBatch:
    def workload(self, trace, n=30):
        rng = make_rng(21)
        sources = rng.integers(0, trace.n_peers, size=n)
        queries = []
        for _ in range(n):
            inst = int(rng.integers(0, min(30, trace.n_instances)))
            toks = tokenize_name(trace.names.lookup(int(trace.name_ids[inst])))
            queries.append(toks[: 1 + int(rng.integers(0, 2))])
        queries[-1] = ["qqqq-unknown-term-qqqq"]
        return sources, queries

    def test_matches_scalar_qrp_flood(self, qrp_setup, small_trace):
        topo, tables = qrp_setup
        sources, queries = self.workload(small_trace)
        out = qrp_flood_batch(topo, tables, sources, queries, ttl=3)
        assert out.n_queries == sources.size
        for i in range(sources.size):
            scalar = qrp_flood(topo, tables, int(sources[i]), queries[i], ttl=3)
            assert int(out.messages[i]) == scalar.messages
            assert int(out.messages_without_qrp[i]) == scalar.messages_without_qrp
            assert int(out.n_delivered[i]) == scalar.delivered.size
            assert (
                int(out.false_positive_deliveries[i])
                == scalar.false_positive_deliveries
            )
            assert float(out.savings[i]) == scalar.savings

    def test_shared_cache_identical(self, qrp_setup, small_trace):
        topo, tables = qrp_setup
        sources, queries = self.workload(small_trace, n=15)
        fresh = qrp_flood_batch(topo, tables, sources, queries, ttl=3)
        shared = qrp_flood_batch(
            topo, tables, sources, queries, ttl=3, cache=FloodDepthCache(topo)
        )
        np.testing.assert_array_equal(fresh.messages, shared.messages)
        np.testing.assert_array_equal(fresh.n_delivered, shared.n_delivered)
