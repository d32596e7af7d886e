"""Tests for repro.dht.keyword_index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tokenize import tokenize_name
from repro.dht.chord import ChordRing
from repro.dht.keyword_index import KeywordIndex


@pytest.fixture(scope="module")
def index(small_content) -> KeywordIndex:
    ring = ChordRing(small_content.n_peers, seed=2)
    return KeywordIndex(ring, small_content)


def sample_terms(trace, n=2) -> list[str]:
    name = trace.names.lookup(int(trace.name_ids[0]))
    return tokenize_name(name)[:n]


class TestQuery:
    def test_results_match_content_index(self, index, small_content, small_trace):
        terms = sample_terms(small_trace)
        res = index.query(terms, source=0)
        np.testing.assert_array_equal(res.hit_instances, small_content.match(terms))

    def test_succeeds_for_existing_content(self, index, small_trace):
        terms = sample_terms(small_trace, n=1)
        assert index.query(terms, source=3).succeeded

    def test_unknown_term_fails_but_costs_hops(self, index):
        res = index.query(["zzzznotaterm"], source=0)
        assert not res.succeeded
        assert res.lookup_hops >= 0
        assert res.posting_entries_shipped == 0

    def test_multi_term_cost_accumulates(self, index, small_trace):
        terms = sample_terms(small_trace, n=2)
        if len(terms) < 2:
            pytest.skip("name has a single term")
        single = index.query(terms[:1], source=0)
        both = index.query(terms, source=0)
        assert both.posting_entries_shipped >= single.posting_entries_shipped

    def test_duplicate_terms_counted_once(self, index, small_trace):
        term = sample_terms(small_trace, n=1)
        once = index.query(term, source=0)
        twice = index.query(term + term, source=0)
        assert twice.posting_entries_shipped == once.posting_entries_shipped

    def test_empty_query_raises(self, index):
        with pytest.raises(ValueError, match="term"):
            index.query([], source=0)

    def test_messages_is_hops_plus_bandwidth(self, index, small_trace):
        res = index.query(sample_terms(small_trace), source=1)
        assert res.messages == res.lookup_hops + res.posting_entries_shipped


class TestPlacement:
    def test_term_home_matches_ring(self, index, small_trace):
        term = sample_terms(small_trace, n=1)[0]
        assert index.term_home(term) == index.ring.owner_of(term)

    def test_unknown_term_still_hashes(self, index):
        home = index.term_home("neverseen")
        assert 0 <= home < index.ring.n_nodes

    def test_publish_cost_positive(self, index, small_content):
        cost = index.publish_cost()
        assert cost >= small_content.n_instances  # >= one term per file


class TestBloomIntersection:
    def test_results_identical_to_naive(self, index, small_trace):
        terms = sample_terms(small_trace, n=2)
        naive = index.query(terms, source=0)
        bloom = index.query(terms, source=0, intersection="bloom")
        np.testing.assert_array_equal(naive.hit_instances, bloom.hit_instances)

    def test_bloom_saves_bandwidth_on_skewed_postings(self, index, small_content):
        # One rare + one popular term: naive ships both postings, bloom
        # ships the small filter + filtered candidates.
        counts = np.bincount(
            small_content._posting_terms, minlength=small_content.term_index.n_terms
        )
        rare = small_content.term_index.term_string(int(np.flatnonzero(counts == 1)[0]))
        popular = small_content.term_index.term_string(int(np.argmax(counts)))
        naive = index.query([rare, popular], source=0)
        bloom = index.query([rare, popular], source=0, intersection="bloom")
        assert bloom.posting_entries_shipped < naive.posting_entries_shipped
        np.testing.assert_array_equal(naive.hit_instances, bloom.hit_instances)

    def test_single_term_equivalent(self, index, small_trace):
        terms = sample_terms(small_trace, n=1)
        naive = index.query(terms, source=0)
        bloom = index.query(terms, source=0, intersection="bloom")
        assert naive.posting_entries_shipped == bloom.posting_entries_shipped

    def test_unknown_term_bloom(self, index):
        res = index.query(["zzzznotaterm", "alsonotaterm"], source=0, intersection="bloom")
        assert not res.succeeded
        assert res.posting_entries_shipped == 0

    def test_unknown_strategy_raises(self, index, small_trace):
        with pytest.raises(ValueError, match="intersection strategy"):
            index.query(sample_terms(small_trace), source=0, intersection="bogus")
