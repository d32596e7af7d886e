"""Tests for repro.overlay.network and messages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tokenize import tokenize_name
from repro.overlay.messages import QueryHit, QueryMessage
from repro.overlay.network import UnstructuredNetwork
from repro.overlay.topology import flat_random


@pytest.fixture(scope="module")
def network(small_content):
    topo = flat_random(small_content.n_peers, 6.0, seed=8)
    return UnstructuredNetwork(topo, small_content)


def popular_terms(content) -> list[str]:
    counts = content.term_peer_counts()
    tid = int(np.argmax(counts))
    return [content.term_index.term_string(tid)]


class TestQueryFlood:
    def test_results_only_from_reached_peers(self, network):
        terms = popular_terms(network.content)
        out = network.query_flood(0, terms, ttl=2)
        from repro.overlay.flooding import flood

        reached = set(flood(network.topology, 0, 2).reached.tolist())
        for p in out.responding_peers:
            assert int(p) in reached

    def test_larger_ttl_weakly_more_results(self, network):
        terms = popular_terms(network.content)
        small = network.query_flood(0, terms, ttl=1).n_results
        large = network.query_flood(0, terms, ttl=4).n_results
        assert large >= small

    def test_succeeded_flag(self, network):
        terms = popular_terms(network.content)
        out = network.query_flood(0, terms, ttl=5)
        assert out.succeeded == (out.n_results > 0)

    def test_messages_positive(self, network):
        out = network.query_flood(0, ["whatever"], ttl=2)
        assert out.messages > 0

    def test_responding_peers_lazy_and_deduped(self, network):
        terms = popular_terms(network.content)
        out = network.query_flood(0, terms, ttl=3)
        np.testing.assert_array_equal(
            out.responding_peers, np.unique(out.hit_peers)
        )
        # cached_property: the derived array is computed once.
        assert out.responding_peers is out.responding_peers

    def test_hit_peers_align_with_instances(self, network):
        terms = popular_terms(network.content)
        out = network.query_flood(0, terms, ttl=4)
        np.testing.assert_array_equal(
            out.hit_peers, network.content.instance_peer[out.hit_instances]
        )


class TestQueryWalk:
    def test_walk_messages_bounded(self, network):
        out = network.query_walk(0, ["whatever"], walkers=4, ttl=25, seed=1)
        assert out.messages <= 100

    def test_walk_probes_at_most_budget_peers(self, network):
        out = network.query_walk(0, ["whatever"], walkers=2, ttl=10, seed=1)
        assert out.peers_probed <= 21  # source + 2*10


class TestMismatchedSizes:
    def test_topology_size_must_match(self, small_content):
        topo = flat_random(small_content.n_peers + 5, 4.0, seed=0)
        with pytest.raises(ValueError, match="peers"):
            UnstructuredNetwork(topo, small_content)


class TestProtocolFacade:
    def test_query_message_forwarding(self):
        q = QueryMessage(terms=("a", "b"), ttl=3)
        f = q.forwarded()
        assert f.ttl == 2 and f.hops == 1 and f.guid == q.guid

    def test_forward_at_zero_raises(self):
        q = QueryMessage(terms=("a",), ttl=0)
        with pytest.raises(ValueError, match="ttl=0"):
            q.forwarded()

    def test_empty_terms_raise(self):
        with pytest.raises(ValueError, match="term"):
            QueryMessage(terms=(), ttl=1)

    def test_guids_unique(self):
        a = QueryMessage(terms=("x",), ttl=1)
        b = QueryMessage(terms=("x",), ttl=1)
        assert a.guid != b.guid

    def test_answer_returns_hit(self, network, small_trace):
        trace = small_trace
        peer = int(trace.peer_of_instance[0])
        name = trace.names.lookup(int(trace.name_ids[0]))
        terms = tuple(tokenize_name(name)[:1])
        msg = QueryMessage(terms=terms, ttl=1)
        hit = network.answer(msg, peer, small_trace)
        assert isinstance(hit, QueryHit)
        assert hit.responder == peer
        assert hit.n_results >= 1
        assert any(terms[0] in tokenize_name(n) for n in hit.file_names)

    def test_answer_miss_returns_empty_hit(self, network, small_trace):
        msg = QueryMessage(terms=("zzzznotaterm",), ttl=1)
        hit = network.answer(msg, 0, small_trace)
        assert hit.guid == msg.guid
        assert hit.n_results == 0
        assert hit.file_names == ()
