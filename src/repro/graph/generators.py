"""Synthetic workload graphs.

The paper evaluates on DBLP (undirected bibliographic network of authors,
papers and venues; 2.0M nodes / 8.8M edges) and a LiveJournal sample
(directed friendship graph; 1.2M / 4.8M).  Neither dataset is available in
this offline environment, so this module provides structural stand-ins:

* :func:`bibliographic_graph` — an undirected tripartite author-paper-venue
  network organised into research *communities* (venues and authors cluster
  by field, papers mostly stay within their field).  Papers carry
  publication years, enabling the year-snapshot growth series of
  Fig. 13(a).  Author productivity and venue sizes are power-law
  distributed so high-expected-utility hub nodes exist.
* :func:`social_graph` — a directed friendship network combining strong
  *locality* (most friendships connect nearby nodes on a ring, à la
  small-world models) with a few popularity-weighted long-range links, and
  a reciprocity knob (LiveJournal friendships are declared, i.e. directed,
  but often reciprocated).

Locality is the property that makes the scheduled approximation behave at
small scale the way it does on the paper's multi-million-node graphs: PPV
mass concentrates near the query, so the first few hub-length partitions
capture almost everything.  A scale-free graph of only ~10^4 nodes has
diameter ~3 and every walk crosses a celebrity hub immediately, which is
*not* representative of a 2M-node graph where a random query sits far from
the core.

Both generators take an explicit seed and are deterministic for a given
parameter set.  Small deterministic topologies (cycle, path, star,
complete) round out the module for tests and docs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.build import GraphBuilder
from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class BibliographicGraph:
    """A DBLP-like network plus its paper timestamps.

    Attributes
    ----------
    graph:
        Undirected (bidirectional) tripartite graph.  Node ids are laid out
        as ``[authors | papers | venues]``.
    num_authors, num_papers, num_venues:
        Sizes of the three node classes.
    paper_years:
        Publication year of each paper (length ``num_papers``), aligned with
        node ids ``num_authors .. num_authors + num_papers - 1``.
    """

    graph: DiGraph
    num_authors: int
    num_papers: int
    num_venues: int
    paper_years: np.ndarray

    def author_node(self, i: int) -> int:
        """Node id of author ``i``."""
        return i

    def paper_node(self, i: int) -> int:
        """Node id of paper ``i``."""
        return self.num_authors + i

    def venue_node(self, i: int) -> int:
        """Node id of venue ``i``."""
        return self.num_authors + self.num_papers + i

    def node_kind(self, node: int) -> str:
        """``"author"``, ``"paper"`` or ``"venue"`` for a node id."""
        if node < self.num_authors:
            return "author"
        if node < self.num_authors + self.num_papers:
            return "paper"
        return "venue"


def _zipf_weights(
    rng: np.random.Generator, count: int, exponent: float, max_value: int = 10_000
) -> np.ndarray:
    """Power-law positive weights, clipped — models skewed activity."""
    raw = rng.zipf(exponent, size=count)
    return np.minimum(raw, max_value).astype(float)


def bibliographic_graph(
    num_authors: int = 2000,
    num_papers: int = 4000,
    num_venues: int = 60,
    authors_per_paper: int = 3,
    cross_community: float = 0.08,
    year_range: tuple[int, int] = (1994, 2010),
    seed: int = 7,
) -> BibliographicGraph:
    """Generate a DBLP-like author-paper-venue network.

    Authors and venues are split into research communities (about four
    venues each).  A paper belongs to its first author's community: it
    picks its venue there and its co-authors mostly there too, each with
    probability ``cross_community`` of reaching outside — giving the graph
    the community structure (and therefore query locality) of a real
    bibliography.  Author productivity and venue size follow clipped Zipf
    laws, so a few prolific authors / large venues become natural hubs.

    Every author-paper and paper-venue relation becomes a bidirectional
    edge, matching the paper's undirected DBLP graph.  Papers receive years
    spread over ``year_range`` with volume growing over time — later
    snapshots are strictly larger, as in Fig. 13(a).
    """
    if min(num_authors, num_papers, num_venues) <= 0:
        raise ValueError("all node-class sizes must be positive")
    first_year, last_year = year_range
    if last_year < first_year:
        raise ValueError("year_range must be (first, last) with first <= last")
    rng = np.random.default_rng(seed)
    total = num_authors + num_papers + num_venues
    builder = GraphBuilder(num_nodes=total)

    num_communities = max(1, num_venues // 4)
    author_community = rng.integers(0, num_communities, size=num_authors)
    venue_community = rng.integers(0, num_communities, size=num_venues)
    # Guarantee every community has at least one venue by round-robin fill.
    venue_community[:num_communities] = np.arange(num_communities) % max(
        num_venues, 1
    )

    author_weight = _zipf_weights(rng, num_authors, 2.0)
    venue_weight = _zipf_weights(rng, num_venues, 1.6)

    authors_by_community = [
        np.nonzero(author_community == c)[0] for c in range(num_communities)
    ]
    venues_by_community = [
        np.nonzero(venue_community == c)[0] for c in range(num_communities)
    ]

    def pick(pool: np.ndarray, weights: np.ndarray, exclude: set[int]) -> int:
        probs = weights[pool].copy()
        for member in exclude:
            hits = np.nonzero(pool == member)[0]
            probs[hits] = 0.0
        if probs.sum() <= 0.0:
            probs = np.ones(pool.size)
        return int(rng.choice(pool, p=probs / probs.sum()))

    # Publication volume grows over time: year sampled with linearly
    # increasing weight so that successive snapshots grow super-linearly.
    years = np.arange(first_year, last_year + 1)
    year_prob = np.linspace(1.0, 3.0, years.size)
    year_prob /= year_prob.sum()
    paper_years = rng.choice(years, size=num_papers, p=year_prob)
    paper_years.sort()

    all_authors = np.arange(num_authors)
    all_venues = np.arange(num_venues)
    for paper in range(num_papers):
        paper_node = num_authors + paper
        lead = pick(all_authors, author_weight, set())
        community = int(author_community[lead])
        chosen: set[int] = {lead}
        extra = int(rng.integers(0, authors_per_paper))
        for _ in range(extra):
            if rng.random() < cross_community:
                pool = all_authors
            else:
                pool = authors_by_community[community]
            if pool.size <= len(chosen):
                continue
            chosen.add(pick(pool, author_weight, chosen))
        if rng.random() < cross_community:
            venue_pool = all_venues
        else:
            venue_pool = venues_by_community[community]
            if venue_pool.size == 0:
                venue_pool = all_venues
        venue = pick(venue_pool, venue_weight, set())
        builder.add_undirected_edge(paper_node, num_authors + num_papers + venue)
        for author in chosen:
            builder.add_undirected_edge(author, paper_node)

    graph = builder.build()
    return BibliographicGraph(
        graph=graph,
        num_authors=num_authors,
        num_papers=num_papers,
        num_venues=num_venues,
        paper_years=paper_years,
    )


def social_graph(
    num_nodes: int = 5000,
    edges_per_node: int = 5,
    long_range: float = 0.05,
    locality: float = 0.45,
    reciprocity: float = 0.5,
    seed: int = 11,
) -> DiGraph:
    """Generate a LiveJournal-like directed friendship network.

    Nodes sit on a ring (a stand-in for geographic/social proximity).
    Each node declares ``edges_per_node`` friends: with probability
    ``1 - long_range`` a *nearby* node (ring offset geometric with
    parameter ``locality`` — larger means tighter neighbourhoods), else a
    *popular* node anywhere (static Zipf popularity, so a few celebrities
    accumulate large in-degree).  Each declared edge is reciprocated
    independently with probability ``reciprocity``, mirroring
    LiveJournal's "friendship not necessarily reciprocal" semantics.

    Every node declares at least one friendship, so the graph has no
    dangling nodes and the query-time error identity of Eq. 6 is exact.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 <= reciprocity <= 1.0:
        raise ValueError("reciprocity must lie in [0, 1]")
    if not 0.0 <= long_range <= 1.0:
        raise ValueError("long_range must lie in [0, 1]")
    if not 0.0 < locality < 1.0:
        raise ValueError("locality must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_nodes=num_nodes)

    popularity = _zipf_weights(rng, num_nodes, 2.0)
    cumulative = np.cumsum(popularity)
    total_weight = cumulative[-1]

    for node in range(num_nodes):
        targets: set[int] = set()
        attempts = 0
        while len(targets) < edges_per_node and attempts < 20 * edges_per_node:
            attempts += 1
            if rng.random() < long_range:
                target = int(
                    np.searchsorted(cumulative, rng.random() * total_weight)
                )
            else:
                offset = int(rng.geometric(locality))
                sign = 1 if rng.random() < 0.5 else -1
                target = (node + sign * offset) % num_nodes
            if target != node:
                targets.add(target)
        if not targets:  # pathological RNG streak: keep the node non-dangling
            targets.add((node + 1) % num_nodes)
        for target in targets:
            builder.add_edge(node, target)
            if rng.random() < reciprocity:
                builder.add_edge(target, node)
    return builder.build()


# --------------------------------------------------------------------- #
# Small deterministic topologies (tests, docs, analytic sanity checks)
# --------------------------------------------------------------------- #


def erdos_renyi_graph(num_nodes: int, edge_prob: float, seed: int = 0) -> DiGraph:
    """G(n, p) directed random graph without self-loops."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((num_nodes, num_nodes)) < edge_prob
    np.fill_diagonal(mask, False)
    srcs, dsts = np.nonzero(mask)
    builder = GraphBuilder(num_nodes=num_nodes)
    for src, dst in zip(srcs, dsts):
        builder.add_edge(int(src), int(dst))
    return builder.build()


def cycle_graph(num_nodes: int) -> DiGraph:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    builder = GraphBuilder(num_nodes=num_nodes)
    for u in range(num_nodes):
        builder.add_edge(u, (u + 1) % num_nodes)
    return builder.build()


def path_graph(num_nodes: int) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1`` (last node dangling)."""
    builder = GraphBuilder(num_nodes=num_nodes)
    for u in range(num_nodes - 1):
        builder.add_edge(u, u + 1)
    return builder.build()


def star_graph(num_leaves: int) -> DiGraph:
    """Hub node 0 with bidirectional edges to ``num_leaves`` leaves."""
    builder = GraphBuilder(num_nodes=num_leaves + 1)
    for leaf in range(1, num_leaves + 1):
        builder.add_undirected_edge(0, leaf)
    return builder.build()


def complete_graph(num_nodes: int) -> DiGraph:
    """Every ordered pair of distinct nodes is an edge."""
    builder = GraphBuilder(num_nodes=num_nodes)
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v:
                builder.add_edge(u, v)
    return builder.build()
