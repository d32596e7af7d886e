"""Integration tests: the full measurement-to-conclusion pipeline.

Each test mirrors a stage of the paper's methodology end-to-end on the
calibrated synthetic data: crawl -> analyze -> conclude.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.jaccard import jaccard
from repro.analysis.popularity import top_k_set
from repro.analysis.replication import summarize_replication
from repro.analysis.zipf_fit import fit_zipf
from repro.crawler import crawl_files, crawl_topology, monitor_queries
from repro.dht import ChordRing, KeywordIndex
from repro.hybrid import HybridSearch
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.topology import flat_random, two_tier_gnutella
from repro.utils.rng import make_rng


class TestMeasurementPipeline:
    """§II-III: crawl the network, collect files, analyze annotations."""

    def test_crawl_then_analyze(self, small_trace):
        topo = flat_random(small_trace.n_peers, 6.0, seed=3)
        tcrawl = crawl_topology(topo, p_response=0.9, seed=3)
        fcrawl = crawl_files(small_trace, tcrawl.responded, p_response=0.9, seed=3)
        counts = fcrawl.replica_counts()
        summary = summarize_replication(counts, small_trace.n_peers)
        # The crawled view preserves the paper's qualitative findings.
        assert summary.singleton_fraction > 0.5
        assert fit_zipf(counts).exponent > 0.2

    def test_monitor_then_popularity(self, small_two_tier, small_workload):
        mon = monitor_queries(small_two_tier, small_workload, monitor=0, ttl=4, seed=1)
        assert 0 < mon.capture_rate <= 1.0
        observed = mon.observed_term_counts(small_workload)
        assert observed.sum() > 0


class TestSearchStack:
    """Unstructured + structured + hybrid on one shared trace."""

    @pytest.fixture(scope="class")
    def stack(self, small_content):
        topo = flat_random(small_content.n_peers, 6.0, seed=5)
        network = UnstructuredNetwork(topo, small_content)
        ring = ChordRing(small_content.n_peers, seed=5)
        index = KeywordIndex(ring, small_content)
        return network, index, HybridSearch(network, index, flood_ttl=2)

    def test_dht_finds_what_flood_finds(self, stack, small_content):
        network, index, _ = stack
        counts = small_content.term_peer_counts()
        term = small_content.term_index.term_string(int(np.argmax(counts)))
        flood_hits = set(network.query_flood(0, [term], ttl=50).hit_instances.tolist())
        dht_hits = set(index.query([term], 0).hit_instances.tolist())
        # An exhaustive flood and the DHT agree on the full result set.
        assert flood_hits == dht_hits

    def test_hybrid_success_superset_of_flood(self, stack, small_content):
        _, _, hybrid = stack
        counts = np.bincount(
            small_content._posting_terms, minlength=small_content.term_index.n_terms
        )
        rare_tid = int(np.flatnonzero(counts == 1)[0])
        term = small_content.term_index.term_string(rare_tid)
        out = hybrid.query(0, [term])
        # The structured fallback rescues rare queries the flood misses.
        assert out.succeeded

    def test_queries_from_workload_mostly_fail_flood(self, stack, small_workload):
        """The paper's conclusion, end to end: real query workloads
        rarely resolve within a small-TTL flood."""
        network, _, _ = stack
        rng = make_rng(0)
        n_success = 0
        n = 60
        for qi in rng.integers(0, small_workload.n_queries, size=n):
            words = small_workload.query_words(int(qi))
            out = network.query_flood(int(rng.integers(0, network.n_peers)), words, ttl=2)
            n_success += bool(out.succeeded)
        assert n_success / n < 0.5


class TestDeterminism:
    def test_whole_pipeline_reproducible(self, small_trace, small_workload):
        """Same seeds, same conclusions — bit-for-bit."""
        topo = two_tier_gnutella(small_trace.n_peers, seed=9)
        a = monitor_queries(topo, small_workload, monitor=1, ttl=3, seed=9)
        b = monitor_queries(topo, small_workload, monitor=1, ttl=3, seed=9)
        np.testing.assert_array_equal(a.observed, b.observed)

    def test_mismatch_conclusion_stable_across_seeds(self, small_trace):
        """The <20% query/file similarity is a property of the model,
        not of one lucky seed."""
        from repro.tracegen.query_trace import (
            QueryWorkload,
            QueryWorkloadConfig,
            file_term_peer_counts,
        )

        counts = file_term_peer_counts(small_trace)
        sims = []
        for seed in (1, 2, 3):
            wl = QueryWorkload(
                small_trace.catalog,
                counts,
                QueryWorkloadConfig(
                    n_queries=5_000, vocab_size=500, popular_file_pool=300, seed=seed
                ),
            )
            total = np.zeros(wl.config.vocab_size, dtype=np.int64)
            np.add.at(total, wl.term_ids, 1)
            q_top = {wl.vocab_words[i] for i in top_k_set(total, 100)}
            order = np.argsort(counts)[::-1][:100]
            f_top = {small_trace.catalog.lexicon.word(int(i)) for i in order}
            sims.append(jaccard(q_top, f_top))
        assert all(s < 0.25 for s in sims)
