"""PPR-based graph clustering (Sect. 5.3, after Sarkar & Moore [18]).

"A number of 'anchor' nodes are chosen randomly, and every other node in
the graph is assigned to its 'nearest' anchor in terms of their
personalized PageRank w.r.t. the anchor."  Personalized PageRank has good
clustering quality (Andersen-Chung-Lang [1]), so random anchors suffice.

Anchor PPVs are computed with forward push at a moderate threshold; nodes
no anchor reaches fall back to the anchor with the smallest id (they are
typically isolated or peripheral, and any assignment is equally good for
the one-cluster-in-memory simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.push import forward_push
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA

_PUSH_THRESHOLD = 1e-5
"""Forward-push threshold of the anchor PPVs (teleport probability
``DEFAULT_ALPHA``): coarser is faster but leaves more nodes to the
fallback assignment."""


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of :func:`cluster_graph`.

    Attributes
    ----------
    anchors:
        The anchor node of each cluster (length ``k``).
    labels:
        Cluster id of every node (length ``n``).
    """

    anchors: np.ndarray
    labels: np.ndarray

    @property
    def num_clusters(self) -> int:
        """Number of clusters ``k``."""
        return self.anchors.size

    def members(self, cluster: int) -> np.ndarray:
        """Node ids belonging to ``cluster``."""
        return np.nonzero(self.labels == cluster)[0]

    def sizes(self) -> np.ndarray:
        """Node count of every cluster."""
        return np.bincount(self.labels, minlength=self.num_clusters)

    def largest_fraction(self, graph: DiGraph) -> float:
        """Size of the largest cluster as a fraction of graph size
        (nodes + edges) — the "memory need" column of Fig. 16."""
        sizes = np.zeros(self.num_clusters)
        degrees = graph.out_degrees
        for cluster in range(self.num_clusters):
            nodes = self.members(cluster)
            sizes[cluster] = nodes.size + degrees[nodes].sum()
        total = graph.num_nodes + graph.num_edges
        return float(sizes.max() / total) if total else 0.0


def cluster_graph(
    graph: DiGraph,
    num_clusters: int,
    seed: int = 0,
) -> ClusterAssignment:
    """Partition ``graph`` into ``num_clusters`` PPR clusters.

    Parameters
    ----------
    graph:
        The graph.
    num_clusters:
        Number of anchors/clusters.
    seed:
        Random seed for anchor selection.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    num_clusters = min(num_clusters, graph.num_nodes)
    rng = np.random.default_rng(seed)
    anchors = np.sort(
        rng.choice(graph.num_nodes, size=num_clusters, replace=False)
    ).astype(np.int64)

    best_score = np.full(graph.num_nodes, -1.0)
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    for cluster, anchor in enumerate(anchors):
        scores, _ = forward_push(
            graph, int(anchor), alpha=DEFAULT_ALPHA, threshold=_PUSH_THRESHOLD
        )
        better = scores > best_score
        labels[better] = cluster
        best_score[better] = scores[better]
    # Anchors always own themselves (an anchor's PPV peaks at itself, but a
    # coarse push from a huge-degree neighbour could in principle shade it).
    labels[anchors] = np.arange(num_clusters)
    return ClusterAssignment(anchors=anchors, labels=labels)
