"""Dynamic graphs: incremental index maintenance (paper's future work #2).

"As a graph can evolve over time, a simple idea to process graph updates
is to only re-compute the affected prime PPVs, without touching the
unaffected ones." (Sect. 7.)  This module realises that idea:

* :func:`add_edges` / :func:`remove_edges` produce an updated
  (still immutable) graph;
* :func:`update_index` diffs old vs new adjacency, finds the hubs whose
  prime subgraphs are *affected*, and recomputes only those entries.

A hub ``h`` is affected by a change to node ``u``'s out-edges iff ``u``
was an **interior** node of ``G'(h)`` — i.e. ``u`` appears in the prime
PPV's support and is either a non-hub or ``h`` itself (border hubs are
never expanded, so their out-edges never influence the entry).  This test
is exact up to the epsilon truncation: a node that was cut off by epsilon
could in principle become relevant after an update that *raises* mass
towards it, but any such contribution is below the same epsilon the
offline phase already discards.  Tests verify equivalence with a full
rebuild on random update batches.

Kept in ``src/``: ``examples/dynamic_graph.py`` calls it, and
:meth:`repro.serving.PPVService.update_index` serves the index it returns.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.index import PPVIndex, build_index, clip_prime_ppv
from repro.core.prime import prime_ppv
from repro.graph.build import GraphBuilder
from repro.graph.digraph import DiGraph

Edge = tuple[int, int]


def _copy_into(builder: GraphBuilder, graph: DiGraph, drop: set[Edge]) -> None:
    """Re-add all of ``graph``'s edges (with weights) except ``drop``."""
    weights = graph.weights
    for src in range(graph.num_nodes):
        start, end = graph.indptr[src], graph.indptr[src + 1]
        for position in range(start, end):
            dst = int(graph.indices[position])
            if (src, dst) in drop:
                continue
            weight = float(weights[position]) if weights is not None else None
            builder.add_edge(src, dst, weight)


def add_edges(
    graph: DiGraph, edges: Iterable[Edge], weight: float | None = None
) -> DiGraph:
    """A new graph with ``edges`` added (duplicates are no-ops on
    unweighted graphs; on weighted graphs weights merge additively)."""
    builder = GraphBuilder(num_nodes=graph.num_nodes)
    _copy_into(builder, graph, drop=set())
    for src, dst in edges:
        builder.add_edge(src, dst, weight)
    return builder.build()


def remove_edges(graph: DiGraph, edges: Iterable[Edge]) -> DiGraph:
    """A new graph with ``edges`` removed (missing edges are no-ops)."""
    drop = {(int(s), int(d)) for s, d in edges}
    builder = GraphBuilder(num_nodes=graph.num_nodes)
    _copy_into(builder, graph, drop=drop)
    return builder.build()


def changed_sources(old: DiGraph, new: DiGraph) -> np.ndarray:
    """Nodes whose out-adjacency (or out-weights) differs between the two
    graphs."""
    if old.num_nodes != new.num_nodes:
        raise ValueError("graphs must have the same node set")
    changed = []
    for node in range(old.num_nodes):
        if not np.array_equal(old.out_neighbors(node), new.out_neighbors(node)):
            changed.append(node)
            continue
        if old.weights is not None or new.weights is not None:
            old_slice = (
                old.weights[old.indptr[node] : old.indptr[node + 1]]
                if old.weights is not None
                else np.ones(old.out_degree(node))
            )
            new_slice = (
                new.weights[new.indptr[node] : new.indptr[node + 1]]
                if new.weights is not None
                else np.ones(new.out_degree(node))
            )
            if not np.array_equal(old_slice, new_slice):
                changed.append(node)
    return np.asarray(changed, dtype=np.int64)


def affected_hubs(index: PPVIndex, sources: np.ndarray) -> np.ndarray:
    """Hubs whose prime subgraph contains a changed node as an interior.

    See the module docstring for the interior test.
    """
    source_set = set(int(s) for s in sources)
    hub_mask = index.hub_mask
    affected = []
    for hub in index.hubs.tolist():
        for node in index.get(hub).nodes:
            node = int(node)
            if node in source_set and (not hub_mask[node] or node == hub):
                affected.append(hub)
                break
    return np.asarray(sorted(affected), dtype=np.int64)


def update_index(
    old_graph: DiGraph, new_graph: DiGraph, index: PPVIndex
) -> tuple[PPVIndex, int]:
    """Incrementally refresh ``index`` after a graph update.

    Returns
    -------
    (new_index, recomputed):
        The refreshed index (hub set unchanged) and how many prime PPVs
        were actually recomputed.

    Notes
    -----
    The hub *set* is kept: expected-utility scores drift slowly and the
    paper's proposal keeps hubs fixed across updates.  Callers that want
    to re-select hubs should rebuild via
    :func:`repro.core.index.build_index`.
    """
    sources = changed_sources(old_graph, new_graph)
    stale = affected_hubs(index, sources)
    entries = {hub: index.get(hub) for hub in index.hubs.tolist()}
    for hub in stale.tolist():
        entries[hub] = clip_prime_ppv(
            prime_ppv(
                new_graph,
                hub,
                index.hub_mask,
                alpha=index.alpha,
                epsilon=index.epsilon,
            ),
            index.clip,
        )
    refreshed = PPVIndex(
        index.alpha, index.epsilon, index.clip, index.hub_mask.copy(), entries
    )
    return refreshed, stale.size


def rebuild_index(new_graph: DiGraph, index: PPVIndex) -> PPVIndex:
    """Full rebuild with the same hub set and parameters (the baseline
    the incremental path is tested against)."""
    return build_index(
        new_graph,
        index.hubs,
        alpha=index.alpha,
        epsilon=index.epsilon,
        clip=index.clip,
    )
