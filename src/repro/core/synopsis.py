"""Adaptive content synopses — the paper's proposed direction (§VII, ref [9]).

The position paper closes by sketching the fix its measurements
motivate: peers publish compact *synopses* of their content to their
neighbors, and the synopses are chosen **query-centrically** — biased
toward the terms users are currently searching for (including
transiently popular ones) instead of the terms that happen to be
common among files.  Because popular file terms and popular query
terms barely overlap (< 20% Jaccard), a content-centric synopsis
wastes its capacity summarizing terms nobody asks for.

The simulation: every peer owns a capacity-``B`` Bloom synopsis of a
*selected subset* of its file terms, shared with direct neighbors.  A
search is a budgeted synopsis-guided walk — at each hop the walker
prefers an unvisited neighbor whose synopsis claims all query terms.
Selection policies:

``random``
    no synopses at all (pure random walk baseline);
``content``
    each peer advertises its terms that are most popular *among files*
    network-wide (the content-centric strawman);
``static-query``
    terms most popular in the *historical* query workload (query-centric,
    no adaptation);
``adaptive``
    terms scored by an exponentially-decayed count of recently observed
    query terms, re-selected every epoch — this tracks transient bursts,
    per the authors' INFOCOM'08 follow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.experiment import TraceBundle, build_content_index, build_trace_bundle
from repro.overlay.churn import ChurnTimeline
from repro.overlay.content import SharedContentIndex
from repro.overlay.topology import Topology, flat_random
from repro.utils.bloom import optimal_parameters, probe_positions
from repro.utils.rng import derive

__all__ = [
    "SynopsisConfig",
    "PolicyOutcome",
    "SynopsisResult",
    "PeerSynopses",
    "run_synopsis_experiment",
]

class PeerSynopses:
    """All peers' Bloom synopses as one bit matrix.

    Row ``p`` is peer ``p``'s filter; the layout makes "which peers
    claim term t" a single vectorized gather across the network, which
    is what the guided walk consults at every hop.
    """

    def __init__(self, n_peers: int, capacity: int, fp_rate: float = 0.02) -> None:
        self.m_bits, self.k_hashes = optimal_parameters(capacity, fp_rate)
        self.bits = np.zeros((n_peers, self.m_bits), dtype=bool)

    def _positions(self, term_ids: np.ndarray) -> np.ndarray:
        return probe_positions(term_ids, self.m_bits, self.k_hashes)

    def clear(self) -> None:
        """Drop every synopsis (epoch rebuild)."""
        self.bits[:] = False

    def add(self, peer: int, term_ids: np.ndarray) -> None:
        """Insert terms into one peer's synopsis."""
        if term_ids.size:
            self.bits[peer, self._positions(term_ids).ravel()] = True

    def peers_claiming(self, term_ids: np.ndarray) -> np.ndarray:
        """Bool vector over peers: synopsis contains *all* given terms."""
        pos = self._positions(term_ids)  # (n_terms, k)
        return self.bits[:, pos.ravel()].all(axis=1)


@dataclass(frozen=True)
class SynopsisConfig:
    """Parameters of the synopsis experiment."""

    #: synopsis capacity in terms — deliberately far below a peer's
    #: full vocabulary, which is what makes selection policy matter.
    capacity: int = 48
    fp_rate: float = 0.02
    walk_budget: int = 120
    n_queries: int = 600
    #: adaptive-rebuild epoch length.  Must be shorter than burst
    #: lifetimes (hours) or the adaptive policy reacts too late.
    epoch_s: float = 3600.0
    #: exponential decay applied to trending scores between epochs.
    decay: float = 0.5
    #: weight of the historical query-popularity prior the adaptive
    #: policy starts from (it then tracks recent terms on top).
    history_prior: float = 0.5
    avg_degree: float = 8.0
    #: fraction of the trace (by time) used to build the historical
    #: query-popularity scores; evaluation queries come from the rest,
    #: so the static-query policy never sees the future.
    train_fraction: float = 0.15
    policies: tuple[str, ...] = ("random", "content", "static-query", "adaptive")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.walk_budget < 1:
            raise ValueError("walk_budget must be positive")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        if self.history_prior < 0.0:
            raise ValueError("history_prior must be non-negative")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        known = {"random", "content", "static-query", "adaptive"}
        unknown = set(self.policies) - known
        if unknown:
            raise ValueError(f"unknown policies: {sorted(unknown)}")


@dataclass(frozen=True)
class PolicyOutcome:
    """Aggregate outcome of one selection policy.

    ``success_transient`` isolates queries injected by transient
    bursts — the class the adaptive policy exists for; ``nan`` when the
    sample contains none.
    """

    policy: str
    success_rate: float
    mean_messages: float
    mean_hops_to_hit: float
    success_transient: float
    success_persistent: float
    n_transient: int


@dataclass(frozen=True)
class SynopsisResult:
    """All policies, identical query sample and budget."""

    outcomes: list[PolicyOutcome]
    n_queries: int
    walk_budget: int

    def outcome(self, policy: str) -> PolicyOutcome:
        """Look up one policy's outcome."""
        for o in self.outcomes:
            if o.policy == policy:
                return o
        raise KeyError(policy)


@dataclass(frozen=True)
class _PeerTerms:
    """Every distinct (peer, term) pair, sorted by peer, then term."""

    peer: np.ndarray
    term: np.ndarray
    #: index of each pair within its peer's run of pairs.
    slot: np.ndarray
    n_terms: int


def _peer_term_pairs(content: SharedContentIndex) -> _PeerTerms:
    """Distinct term ids per peer, as flat pair arrays."""
    peer, term = content.peer_terms
    starts = np.searchsorted(peer, np.arange(content.n_peers))
    slot = np.arange(peer.size) - starts[peer]
    return _PeerTerms(
        peer=peer, term=term, slot=slot, n_terms=content.term_index.n_terms
    )


def _build_synopses(
    synopses: PeerSynopses,
    pairs: _PeerTerms,
    positions: np.ndarray,
    scores: np.ndarray,
    capacity: int,
    include: np.ndarray | None = None,
) -> None:
    """Fill each peer's synopsis with its top-``capacity`` terms by score.

    Ties go to the larger term id.  ``positions`` holds every term's
    Bloom probes (row ``t`` for term ``t``).  ``include`` masks which
    peers advertise at all — under churn, only peers online at build
    time publish a synopsis.
    """
    synopses.clear()
    peer, term, slot = pairs.peer, pairs.term, pairs.slot
    if include is not None:
        online = include[peer]
        peer, term, slot = peer[online], term[online], slot[online]
    # A stable ascending sort of all term ids by score, reversed, ranks
    # by score descending, then term id descending: restricted to one
    # peer's terms, that is the order a per-peer sort would give.  The
    # peer-major sort leaves each peer's pairs in their own run, so
    # ``slot`` still counts positions within the run.
    n_terms = scores.size
    order = np.argsort(scores, kind="stable")[::-1]
    rank = np.empty(n_terms, dtype=np.int64)
    rank[order] = np.arange(n_terms)
    keys = np.sort(peer * n_terms + rank[term])
    chosen = slot < capacity
    rows = peer[chosen]
    probes = positions[order[keys[chosen] - rows * n_terms]]
    # ``bits`` is C-contiguous, so the flat reshape is a view.
    flat = synopses.bits.reshape(-1)
    flat[(rows[:, None] * synopses.m_bits + probes).ravel()] = True


def _guided_walk(
    topology: Topology,
    source: int,
    claim: np.ndarray | None,
    is_match: np.ndarray,
    budget: int,
    rng: np.random.Generator,
    online: np.ndarray | None = None,
) -> tuple[bool, int]:
    """One budgeted walk; returns (succeeded, messages_used).

    ``online`` restricts which neighbors can be stepped to (and which
    peers can answer) under churn.
    """
    def answers(v: int) -> bool:
        return bool(is_match[v]) and (online is None or bool(online[v]))

    if answers(source):
        return True, 0
    visited = np.zeros(topology.n_nodes, dtype=bool)
    visited[source] = True
    current = source
    for step in range(1, budget + 1):
        neigh = topology.neighbors_of(current)
        if online is not None:
            neigh = neigh[online[neigh]]
        if neigh.size == 0:
            return False, step - 1
        nxt = -1
        if claim is not None:
            promising = neigh[claim[neigh]]
            fresh = promising[~visited[promising]]
            if fresh.size:
                nxt = int(fresh[rng.integers(0, fresh.size)])
        if nxt < 0:
            unvisited = neigh[~visited[neigh]]
            pool = unvisited if unvisited.size else neigh
            nxt = int(pool[rng.integers(0, pool.size)])
        visited[nxt] = True
        current = nxt
        if answers(current):
            return True, step
    return False, budget


def run_synopsis_experiment(
    bundle: TraceBundle | None = None,
    config: SynopsisConfig | None = None,
    *,
    topology: Topology | None = None,
    content: SharedContentIndex | None = None,
    churn: "ChurnTimeline | None" = None,
) -> SynopsisResult:
    """Compare synopsis-selection policies on the same query sample.

    Queries are drawn from the workload in time order and partitioned
    into epochs; the adaptive policy rebuilds its synopses at every
    epoch boundary from decayed query-term counts, while the static
    policies keep their initial selection.

    With a :class:`~repro.overlay.churn.ChurnTimeline`, only peers
    online at build time advertise synopses, walkers only traverse
    online peers, and queries originate at online peers — so static
    synopses go stale as the initial population churns out, while the
    adaptive policy re-advertises every epoch.
    """
    cfg = config or SynopsisConfig()
    if bundle is None:
        bundle = build_trace_bundle()
    if content is None:
        content = build_content_index(bundle.trace)
    if topology is None:
        topology = flat_random(
            content.n_peers, cfg.avg_degree, derive(cfg.seed, "synopsis", "topology")
        )
    workload = bundle.workload
    rng = derive(cfg.seed, "synopsis", "queries")

    # Vocab-rank -> content-term-id mapping (-1 = term on no file).
    vocab_content = np.asarray(
        [
            content.term_id(w) if content.term_id(w) is not None else -1
            for w in workload.vocab_words
        ],
        dtype=np.int64,
    )

    # Train/eval split by time: historical scores from the prefix,
    # evaluation queries evenly sampled from the remainder.
    cutoff = cfg.train_fraction * workload.config.duration_s
    n_train = int(np.searchsorted(workload.timestamps, cutoff))
    train_terms = vocab_content[workload.term_ids[: workload.term_offsets[n_train]]]
    train_terms = train_terms[train_terms >= 0]

    eval_pool = np.arange(n_train, workload.n_queries, dtype=np.int64)
    if eval_pool.size < cfg.n_queries:
        raise ValueError("not enough post-training queries to sample")
    pick = eval_pool[
        np.linspace(0, eval_pool.size - 1, cfg.n_queries).astype(np.int64)
    ]
    query_terms: list[np.ndarray] = []  # content-term-id space
    for qi in pick:
        ids = vocab_content[workload.query_terms(int(qi))]
        query_terms.append(ids[ids >= 0])
    sources = rng.integers(0, content.n_peers, size=cfg.n_queries)

    # Ground-truth matching peers per query (file-level AND matching).
    match_masks: list[np.ndarray | None] = []
    for qi, ids in zip(pick, query_terms):
        ranks = workload.query_terms(int(qi))
        if ids.size < ranks.size or ids.size == 0:
            match_masks.append(None)  # an unknown term can match nothing
            continue
        words = [workload.vocab_words[int(r)] for r in ranks]
        peers = content.matching_peers(words)
        mask = np.zeros(content.n_peers, dtype=bool)
        mask[peers] = True
        match_masks.append(mask if peers.size else None)

    pairs = _peer_term_pairs(content)
    n_terms = pairs.n_terms
    # Every term's Bloom probes, hashed once for all rebuilds.
    positions = probe_positions(
        np.arange(n_terms), *optimal_parameters(cfg.capacity, cfg.fp_rate)
    )
    file_scores = content.term_peer_counts().astype(np.float64)
    # Historical query popularity (training prefix only).
    hist_scores = np.bincount(train_terms, minlength=n_terms).astype(np.float64)

    # Full-stream per-epoch term counts over the evaluation span: every
    # peer observes passing queries, so the adaptive trend learns from
    # the whole workload, not just the evaluated sample.
    duration = workload.config.duration_s
    n_epochs = max(1, int(np.ceil((duration - cutoff) / cfg.epoch_s)))
    epoch_of_query = np.clip(
        ((workload.timestamps - cutoff) / cfg.epoch_s).astype(np.int64), 0, n_epochs - 1
    )
    stream_terms = vocab_content[workload.term_ids]
    stream_epoch = np.repeat(epoch_of_query, np.diff(workload.term_offsets))
    keep = (stream_terms >= 0) & (np.repeat(workload.timestamps, np.diff(workload.term_offsets)) >= cutoff)
    epoch_counts = np.bincount(
        stream_epoch[keep] * n_terms + stream_terms[keep],
        minlength=n_epochs * n_terms,
    ).reshape(n_epochs, n_terms)

    # Evaluation queries grouped by epoch (pick is already time-ordered).
    query_epoch = np.clip(
        ((workload.timestamps[pick] - cutoff) / cfg.epoch_s).astype(np.int64),
        0,
        n_epochs - 1,
    )

    # Per-epoch churn state (None entries when churn is disabled).
    def epoch_time(e: int) -> float:
        return min(cutoff + e * cfg.epoch_s, duration - 1e-6)

    if churn is not None:
        if churn.n_peers != content.n_peers:
            raise ValueError("churn timeline must cover every peer")
        horizon = churn.config.horizon_s
        epoch_online = [
            churn.online_mask(min(epoch_time(e), horizon)) for e in range(n_epochs)
        ]
    else:
        epoch_online = [None] * n_epochs

    outcomes: list[PolicyOutcome] = []
    for policy in cfg.policies:
        synopses: PeerSynopses | None = None
        if policy != "random":
            synopses = PeerSynopses(content.n_peers, cfg.capacity, cfg.fp_rate)
            if policy == "content":
                _build_synopses(
                    synopses, pairs, positions, file_scores, cfg.capacity,
                    epoch_online[0],
                )
            elif policy == "static-query":
                _build_synopses(
                    synopses, pairs, positions, hist_scores, cfg.capacity,
                    epoch_online[0],
                )
        # The adaptive policy starts from (a scaled-down copy of) the
        # historical query popularity and layers recency on top; the
        # prior is normalized to roughly one epoch's worth of counts so
        # fresh bursts can actually displace it.
        epoch_volume = max(1.0, float(epoch_counts.sum()) / n_epochs)
        hist_total = float(hist_scores.sum())
        prior_scale = cfg.history_prior * epoch_volume / hist_total if hist_total else 0.0
        trend = hist_scores * prior_scale
        walk_rng = derive(cfg.seed, "synopsis", "walk", policy)
        successes = np.zeros(cfg.n_queries, dtype=bool)
        messages = np.zeros(cfg.n_queries, dtype=np.float64)
        hit_hops: list[int] = []
        q = 0
        for e in range(n_epochs):
            online = epoch_online[e]
            if policy == "adaptive" and (
                q < cfg.n_queries and query_epoch[q] == e
            ):
                _build_synopses(
                    synopses, pairs, positions, trend, cfg.capacity, online
                )
            while q < cfg.n_queries and query_epoch[q] == e:
                mask = match_masks[q]
                ids = query_terms[q]
                if mask is None:
                    messages[q] = cfg.walk_budget
                    q += 1
                    continue
                claim = (
                    synopses.peers_claiming(ids)
                    if synopses is not None and ids.size
                    else None
                )
                source = int(sources[q])
                if online is not None and not online[source]:
                    # The querier is by definition online: remap the
                    # sampled source deterministically onto the online set.
                    online_ids = np.flatnonzero(online)
                    if online_ids.size == 0:
                        messages[q] = cfg.walk_budget
                        q += 1
                        continue
                    source = int(online_ids[source % online_ids.size])
                ok, used = _guided_walk(
                    topology, source, claim, mask, cfg.walk_budget, walk_rng, online
                )
                successes[q] = ok
                messages[q] = used if ok else cfg.walk_budget
                if ok:
                    hit_hops.append(used)
                q += 1
            trend = trend * cfg.decay + epoch_counts[e]
        transient = workload.is_burst[pick]
        matchable = np.asarray([m is not None for m in match_masks])
        t_mask = transient & matchable
        p_mask = ~transient & matchable
        outcomes.append(
            PolicyOutcome(
                policy=policy,
                success_rate=float(successes.mean()),
                mean_messages=float(messages.mean()),
                mean_hops_to_hit=float(np.mean(hit_hops)) if hit_hops else float("nan"),
                success_transient=(
                    float(successes[t_mask].mean()) if t_mask.any() else float("nan")
                ),
                success_persistent=(
                    float(successes[p_mask].mean()) if p_mask.any() else float("nan")
                ),
                n_transient=int(t_mask.sum()),
            )
        )
    return SynopsisResult(
        outcomes=outcomes, n_queries=cfg.n_queries, walk_budget=cfg.walk_budget
    )
