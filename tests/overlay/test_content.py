"""Tests for repro.overlay.content."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tokenize import tokenize_name


class TestMatch:
    def test_matches_bruteforce(self, small_content, small_trace):
        trace = small_trace
        # Pick terms from a real name so matches exist.
        name = trace.names.lookup(int(trace.name_ids[0]))
        terms = tokenize_name(name)[:2]
        hits = set(small_content.match(terms).tolist())
        expected = set()
        for i in range(trace.n_instances):
            toks = set(tokenize_name(trace.names.lookup(int(trace.name_ids[i]))))
            if all(t in toks for t in terms):
                expected.add(i)
        assert hits == expected

    def test_unknown_term_matches_nothing(self, small_content):
        assert small_content.match(["zzzznotaterm"]).size == 0

    def test_and_semantics_narrow(self, small_content, small_trace):
        trace = small_trace
        name = trace.names.lookup(int(trace.name_ids[0]))
        terms = tokenize_name(name)
        one = small_content.match(terms[:1])
        both = small_content.match(terms[:2]) if len(terms) > 1 else one
        assert set(both.tolist()) <= set(one.tolist())

    def test_empty_query_raises(self, small_content):
        with pytest.raises(ValueError, match="term"):
            small_content.match([])

    def test_duplicate_terms_equivalent(self, small_content, small_trace):
        trace = small_trace
        term = tokenize_name(trace.names.lookup(int(trace.name_ids[0])))[0]
        a = small_content.match([term])
        b = small_content.match([term, term])
        np.testing.assert_array_equal(a, b)


class TestMatchBatch:
    def queries(self, trace, n=12):
        out = []
        for i in range(n):
            name = trace.names.lookup(int(trace.name_ids[i % 5]))
            out.append(tokenize_name(name)[: 1 + i % 2])
        out.append(["zzzznotaterm"])  # unknown-term row
        return out

    def test_rows_match_scalar(self, small_content, small_trace):
        queries = self.queries(small_trace)
        matches = small_content.match_batch(queries)
        assert matches.n_queries == len(queries)
        for i, q in enumerate(queries):
            np.testing.assert_array_equal(
                matches.query_instances(i), small_content.match(q)
            )

    def test_deduplicates_repeated_queries(self, small_content, small_trace):
        queries = self.queries(small_trace)
        matches = small_content.match_batch(queries)
        # Query i and i+2 share a name (i % 5 cycle) and term count
        # (i % 2 cycle is period 2), so distinct rows < total rows.
        assert matches.n_distinct < matches.n_queries
        key0 = small_content.query_key(queries[0])
        for i, q in enumerate(queries):
            if small_content.query_key(q) == key0:
                assert matches.distinct_index[i] == matches.distinct_index[0]

    def test_counts_column(self, small_content, small_trace):
        queries = self.queries(small_trace)
        matches = small_content.match_batch(queries)
        for i in range(matches.n_queries):
            assert matches.counts[i] == matches.query_instances(i).size

    def test_unknown_term_row_empty(self, small_content):
        matches = small_content.match_batch([["zzzznotaterm"]])
        assert matches.query_instances(0).size == 0

    def test_empty_query_raises(self, small_content):
        with pytest.raises(ValueError, match="term"):
            small_content.match_batch([["ok"], []])

    def test_empty_batch(self, small_content):
        matches = small_content.match_batch([])
        assert matches.n_queries == 0
        assert matches.n_distinct == 0

    def test_query_key_canonicalizes(self, small_content, small_trace):
        trace = small_trace
        terms = tokenize_name(trace.names.lookup(int(trace.name_ids[0])))[:2]
        if len(terms) == 2:
            assert small_content.query_key(terms) == small_content.query_key(
                list(reversed(terms)) + terms
            )
        assert small_content.query_key(["zzzznotaterm"]) is None
        with pytest.raises(ValueError, match="term"):
            small_content.query_key([])


class TestPostings:
    def test_posting_sorted_unique(self, small_content):
        for tid in range(0, min(50, small_content.term_index.n_terms)):
            p = small_content.posting(tid)
            assert np.all(np.diff(p) > 0)

    def test_posting_instances_contain_term(self, small_content, small_trace):
        trace = small_trace
        tid = 0
        term = small_content.term_index.term_string(0)
        for inst in small_content.posting(tid)[:50]:
            name = trace.names.lookup(int(trace.name_ids[inst]))
            assert term in tokenize_name(name)

    def test_term_peer_counts_match_manual(self, small_content):
        counts = small_content.term_peer_counts()
        tid = int(np.argmax(counts))
        peers = np.unique(
            small_content.instance_peer[small_content.posting(tid)]
        )
        assert counts[tid] == peers.size


class TestPeerViews:
    def test_matching_peers(self, small_content, small_trace):
        trace = small_trace
        term = tokenize_name(trace.names.lookup(int(trace.name_ids[0])))[0]
        peers = small_content.matching_peers([term])
        hits = small_content.match([term])
        np.testing.assert_array_equal(
            peers, np.unique(small_content.instance_peer[hits])
        )

    def test_peer_results_respects_mask(self, small_content, small_trace):
        trace = small_trace
        term = tokenize_name(trace.names.lookup(int(trace.name_ids[0])))[0]
        mask = np.zeros(small_content.n_peers, dtype=bool)
        mask[int(trace.peer_of_instance[0])] = True
        hits = small_content.peer_results([term], mask)
        assert hits.size > 0
        assert (small_content.instance_peer[hits] == trace.peer_of_instance[0]).all()

    def test_empty_mask_no_results(self, small_content, small_trace):
        trace = small_trace
        term = tokenize_name(trace.names.lookup(int(trace.name_ids[0])))[0]
        mask = np.zeros(small_content.n_peers, dtype=bool)
        assert small_content.peer_results([term], mask).size == 0
