"""Graph construction: incremental builder and edge-list constructor."""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.graph.digraph import DiGraph


class GraphBuilder:
    """Accumulates edges and emits an immutable :class:`DiGraph`.

    Supports both integer nodes (pre-sized via ``num_nodes``) and arbitrary
    hashable labels (auto-interned).  Duplicate edges are merged at build
    time — for weighted edges their weights are *summed* (parallel edges
    behave like one edge of combined capacity, matching random-walk
    semantics).  A graph is weighted as soon as any edge carries an
    explicit weight; unweighted edges count as weight 1.  Self-loops are
    kept unless ``drop_self_loops`` is set, since the random-surfer model
    handles them naturally.
    """

    def __init__(self, num_nodes: int | None = None) -> None:
        self._srcs: list[int] = []
        self._dsts: list[int] = []
        self._weights: list[float] = []
        self._any_weighted = False
        self._labels: list[Hashable] | None = None
        self._label_ids: dict[Hashable, int] | None = None
        self._num_nodes = num_nodes
        self._labelled = num_nodes is None

    def _intern(self, label: Hashable) -> int:
        if self._labels is None:
            self._labels = []
            self._label_ids = {}
        assert self._label_ids is not None
        node = self._label_ids.get(label)
        if node is None:
            node = len(self._labels)
            self._labels.append(label)
            self._label_ids[label] = node
        return node

    def add_node(self, label: Hashable) -> int:
        """Ensure a node exists; returns its dense id."""
        if not self._labelled:
            node = int(label)
            if node < 0:
                raise ValueError("node ids must be non-negative")
            assert self._num_nodes is not None
            if node >= self._num_nodes:
                raise ValueError(f"node {node} >= num_nodes {self._num_nodes}")
            return node
        return self._intern(label)

    def add_edge(
        self, src: Hashable, dst: Hashable, weight: float | None = None
    ) -> None:
        """Add a directed edge ``src -> dst`` with an optional weight."""
        if weight is not None:
            if weight <= 0.0:
                raise ValueError("edge weights must be positive")
            self._any_weighted = True
        self._srcs.append(self.add_node(src))
        self._dsts.append(self.add_node(dst))
        self._weights.append(1.0 if weight is None else float(weight))

    def add_undirected_edge(
        self, a: Hashable, b: Hashable, weight: float | None = None
    ) -> None:
        """Add the edge in both directions (undirected semantics)."""
        self.add_edge(a, b, weight)
        self.add_edge(b, a, weight)

    def add_edges(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Add many directed (unweighted) edges."""
        for src, dst in edges:
            self.add_edge(src, dst)

    @property
    def num_pending_edges(self) -> int:
        """Edges added so far (before deduplication)."""
        return len(self._srcs)

    def build(self, drop_self_loops: bool = False) -> DiGraph:
        """Materialise the CSR graph."""
        if self._labelled:
            n = len(self._labels) if self._labels is not None else 0
        else:
            assert self._num_nodes is not None
            n = self._num_nodes
        srcs = np.asarray(self._srcs, dtype=np.int64)
        dsts = np.asarray(self._dsts, dtype=np.int64)
        weights = np.asarray(self._weights, dtype=np.float64)
        if drop_self_loops and srcs.size:
            keep = srcs != dsts
            srcs, dsts, weights = srcs[keep], dsts[keep], weights[keep]
        if srcs.size:
            # Merge parallel edges: group by (src, dst), summing weights.
            key = srcs * n + dsts
            unique_keys, inverse = np.unique(key, return_inverse=True)
            merged = np.zeros(unique_keys.size)
            np.add.at(merged, inverse, weights)
            srcs = unique_keys // n
            dsts = unique_keys % n
            weights = merged
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
        return DiGraph(
            indptr,
            dsts.astype(np.int32),
            labels=self._labels,
            weights=weights if self._any_weighted else None,
        )


def from_edges(
    edges: Iterable[tuple[int, int]],
    num_nodes: int | None = None,
    undirected: bool = False,
) -> DiGraph:
    """Build a :class:`DiGraph` from an iterable of integer edge pairs.

    Parameters
    ----------
    edges:
        Pairs ``(src, dst)``.
    num_nodes:
        Total node count; inferred as ``max endpoint + 1`` when omitted.
    undirected:
        Store each edge in both directions.
    """
    pairs = list(edges)
    if num_nodes is None:
        num_nodes = 1 + max((max(s, d) for s, d in pairs), default=-1)
    builder = GraphBuilder(num_nodes=num_nodes)
    for src, dst in pairs:
        if undirected:
            builder.add_undirected_edge(src, dst)
        else:
            builder.add_edge(src, dst)
    return builder.build()


def from_weighted_edges(
    edges: Iterable[tuple[int, int, float]],
    num_nodes: int | None = None,
    undirected: bool = False,
) -> DiGraph:
    """Build a weighted :class:`DiGraph` from ``(src, dst, weight)`` triples.

    Parallel edges have their weights summed; see
    :class:`GraphBuilder`.
    """
    triples = list(edges)
    if num_nodes is None:
        num_nodes = 1 + max((max(s, d) for s, d, _ in triples), default=-1)
    builder = GraphBuilder(num_nodes=num_nodes)
    for src, dst, weight in triples:
        if undirected:
            builder.add_undirected_edge(src, dst, weight)
        else:
            builder.add_edge(src, dst, weight)
    return builder.build()
