"""Tests for repro.core.synopsis — the query-centric extension (X-SYN)."""

from __future__ import annotations

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.synopsis import (
    PeerSynopses,
    SynopsisConfig,
    SynopsisResult,
    _build_synopses,
    _peer_term_pairs,
    run_synopsis_experiment,
)
from repro.overlay.content import SharedContentIndex
from repro.utils.bloom import BloomFilter
from repro.utils.rng import make_rng


def _outcomes_digest(result: SynopsisResult) -> str:
    """SHA-256 over every ``PolicyOutcome`` field, floats as ``float.hex``."""
    h = hashlib.sha256()
    for outcome in result.outcomes:
        for f in dataclasses.fields(outcome):
            v = getattr(outcome, f.name)
            h.update(f"{f.name}={v.hex() if isinstance(v, float) else repr(v)};".encode())
    return h.hexdigest()


class TestPeerSynopses:
    def test_no_false_negatives(self):
        syn = PeerSynopses(10, capacity=32)
        ids = np.array([3, 17, 99])
        syn.add(4, ids)
        claims = syn.peers_claiming(ids)
        assert claims[4]

    def test_other_peers_do_not_claim(self):
        syn = PeerSynopses(50, capacity=32)
        syn.add(4, np.array([1, 2, 3]))
        claims = syn.peers_claiming(np.array([1, 2, 3]))
        # Bloom FPs possible but should be rare at this fill.
        assert claims.sum() <= 3

    def test_clear(self):
        syn = PeerSynopses(5, capacity=16)
        syn.add(0, np.array([1]))
        syn.clear()
        assert not syn.peers_claiming(np.array([1])).any()

    def test_partial_match_rejected(self):
        syn = PeerSynopses(5, capacity=64)
        syn.add(0, np.array([1, 2]))
        assert syn.peers_claiming(np.array([1]))[0]
        assert not syn.peers_claiming(np.array([1, 777]))[0]

    def test_positions_match_bloom_filter(self):
        """Synopses and plain Bloom filters share one double hash."""
        syn = PeerSynopses(1, capacity=48)
        assert (syn.m_bits, syn.k_hashes) == (391, 6)
        ids = make_rng(7).integers(0, 2**62, size=10_000)
        np.testing.assert_array_equal(
            syn._positions(ids), BloomFilter(391, 6)._positions(ids)
        )


def _reference_peer_terms(content) -> list[np.ndarray]:
    """Distinct term ids per peer, one array each (the original layout)."""
    n_terms = content.term_index.n_terms
    peers = content.instance_peer[content._posting_instances]
    pairs = np.unique(peers.astype(np.int64) * n_terms + content._posting_terms)
    bounds = np.searchsorted(pairs // n_terms, np.arange(content.n_peers + 1))
    return [pairs[a:b] % n_terms for a, b in zip(bounds[:-1], bounds[1:])]


def _reference_build(synopses, peer_terms, scores, capacity, include=None):
    """The original per-peer selection loop, kept as the oracle."""
    synopses.clear()
    for p, terms in enumerate(peer_terms):
        if include is not None and not include[p]:
            continue
        if terms.size == 0:
            continue
        if terms.size <= capacity:
            chosen = terms
        else:
            order = np.argsort(scores[terms], kind="stable")[::-1]
            chosen = terms[order[:capacity]]
        synopses.add(p, chosen)


def _assert_same_bits(
    content, scores, capacity, include, pairs=None, peer_terms=None
):
    pairs = _peer_term_pairs(content) if pairs is None else pairs
    fast = PeerSynopses(content.n_peers, capacity)
    positions = fast._positions(np.arange(pairs.n_terms))
    _build_synopses(fast, pairs, positions, scores, capacity, include)
    slow = PeerSynopses(content.n_peers, capacity)
    if peer_terms is None:
        peer_terms = _reference_peer_terms(content)
    _reference_build(slow, peer_terms, scores, capacity, include)
    np.testing.assert_array_equal(fast.bits, slow.bits)


class TestVectorizedBuild:
    """The vectorized rebuild sets exactly the bits of the per-peer loop."""

    @pytest.fixture(scope="class")
    def default_terms(self, default_content):
        return _peer_term_pairs(default_content), _reference_peer_terms(default_content)

    @pytest.mark.parametrize("capacity", [1, 3, 48, None])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("scores_kind", ["ties", "distinct"])
    def test_matches_loop(
        self, default_content, default_terms, capacity, masked, scores_kind
    ):
        pairs, peer_terms = default_terms
        rng = make_rng(11)
        n_terms = default_content.term_index.n_terms
        if scores_kind == "ties":
            scores = rng.integers(1, 4, size=n_terms).astype(np.float64)
            scores[rng.random(n_terms) < 0.7] = 0.0
        else:
            scores = rng.random(n_terms)
        include = rng.random(default_content.n_peers) < 0.6 if masked else None
        # ``None``: above every peer's term count, so every term is chosen.
        if capacity is None:
            capacity = max(t.size for t in peer_terms) + 1
        _assert_same_bits(
            default_content, scores, capacity, include, pairs, peer_terms
        )

    @pytest.mark.parametrize("capacity", [1, 2, 10])
    def test_hand_built_index_with_empty_peers(self, capacity):
        # Peers 1 and 4 hold no instance; instance 3 is unnamed.
        index = SimpleNamespace(
            n_peers=5,
            instance_peer=np.array([0, 0, 2, 2, 3, 3]),
            _posting_instances=np.array([0, 1, 2, 4, 5, 0, 2, 1, 5, 4]),
            _posting_terms=np.array([0, 0, 0, 0, 0, 1, 1, 2, 3, 4]),
            term_index=SimpleNamespace(n_terms=6),
        )
        # The real pair computation, run over the hand-built arrays.
        index.peer_terms = SharedContentIndex.peer_terms.func(index)
        scores = np.array([1.0, 0.0, 1.0, 0.0, 2.0, 5.0])
        for include in (None, np.array([True, True, False, True, True])):
            _assert_same_bits(index, scores, capacity, include)
        pairs = _peer_term_pairs(index)
        np.testing.assert_array_equal(pairs.peer, [0, 0, 0, 2, 2, 3, 3, 3])
        np.testing.assert_array_equal(pairs.term, [0, 1, 2, 0, 1, 0, 3, 4])
        np.testing.assert_array_equal(pairs.slot, [0, 1, 2, 0, 1, 0, 1, 2])

    def test_pair_counts_are_term_peer_counts(self, default_content):
        pairs = _peer_term_pairs(default_content)
        np.testing.assert_array_equal(
            np.bincount(pairs.term, minlength=pairs.n_terms),
            default_content.term_peer_counts(),
        )


@pytest.fixture(scope="module")
def result(default_bundle, default_content):
    return run_synopsis_experiment(
        default_bundle, SynopsisConfig(n_queries=800), content=default_content
    )


class TestPolicyOrdering:
    def test_query_centric_beats_content_centric(self, result):
        """The paper's position: selecting synopsis terms by *query*
        popularity beats selecting by file-term popularity."""
        assert (
            result.outcome("static-query").success_rate
            > result.outcome("content").success_rate
        )

    def test_synopses_beat_blind_walk(self, result):
        assert (
            result.outcome("static-query").success_rate
            > result.outcome("random").success_rate
        )

    def test_adaptive_wins_on_transient_queries(self, result):
        """Ref [9]: adapting to transiently popular terms improves
        success on exactly those queries."""
        adaptive = result.outcome("adaptive")
        static = result.outcome("static-query")
        assert adaptive.n_transient > 10
        assert adaptive.success_transient > static.success_transient + 0.05

    def test_adaptive_overall_at_least_static(self, result):
        assert (
            result.outcome("adaptive").success_rate
            >= result.outcome("static-query").success_rate - 0.02
        )

    def test_successful_policies_use_fewer_messages(self, result):
        assert (
            result.outcome("adaptive").mean_messages
            < result.outcome("random").mean_messages
        )

    def test_unknown_policy_lookup_raises(self, result):
        with pytest.raises(KeyError):
            result.outcome("nope")

    def test_outcomes_bitwise_pinned(self, result):
        """Golden digest: a speed-up of the experiment must not move a bit."""
        assert _outcomes_digest(result) == (
            "7b32d10b15618c53ec8c7de4f28164ad655b5b2f49d6dcf99c4cdfb4eb59f22f"
        ), result.outcomes


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(capacity=0), "capacity"),
            (dict(walk_budget=0), "walk_budget"),
            (dict(epoch_s=0), "epoch_s"),
            (dict(decay=1.5), "decay"),
            (dict(history_prior=-1), "history_prior"),
            (dict(train_fraction=0.0), "train_fraction"),
            (dict(policies=("bogus",)), "bogus"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SynopsisConfig(**kwargs)


class TestChurn:
    @pytest.fixture(scope="class")
    def churned(self, default_bundle, default_content):
        from repro.overlay.churn import ChurnConfig, ChurnTimeline

        churn = ChurnTimeline(
            ChurnConfig(
                n_peers=default_content.n_peers,
                horizon_s=default_bundle.workload.config.duration_s,
                seed=5,
            )
        )
        cfg = SynopsisConfig(n_queries=400, policies=("static-query", "adaptive"))
        base = run_synopsis_experiment(default_bundle, cfg, content=default_content)
        under_churn = run_synopsis_experiment(
            default_bundle, cfg, content=default_content, churn=churn
        )
        return base, under_churn

    def test_churn_degrades_everyone(self, churned):
        base, under = churned
        for policy in ("static-query", "adaptive"):
            assert under.outcome(policy).success_rate <= base.outcome(policy).success_rate + 0.02

    def test_adaptive_retains_lead_under_churn(self, churned):
        _, under = churned
        assert (
            under.outcome("adaptive").success_rate
            >= under.outcome("static-query").success_rate
        )

    def test_outcomes_bitwise_pinned(self, churned):
        base, under = churned
        assert (_outcomes_digest(base), _outcomes_digest(under)) == (
            "4caac069c1ffff68be97f1deb7a3913225b260deafa9fb370705570973a37a14",
            "9af053226a32352a5a203cc82edcaf10c735aba667c1c7c2ed29c75d97c0b40f",
        ), (base.outcomes, under.outcomes)

    def test_churn_peer_count_must_match(self, default_bundle, default_content):
        from repro.overlay.churn import ChurnConfig, ChurnTimeline

        churn = ChurnTimeline(ChurnConfig(n_peers=10, seed=1))
        with pytest.raises(ValueError, match="every peer"):
            run_synopsis_experiment(
                default_bundle,
                SynopsisConfig(n_queries=50, policies=("adaptive",)),
                content=default_content,
                churn=churn,
            )
