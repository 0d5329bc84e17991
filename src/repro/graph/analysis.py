"""Structural graph statistics.

Used by the CLI's ``info`` command, by the generator-fidelity checks
(degree skew, reciprocity, effective diameter), and by
auto-configuration heuristics that the paper suggests correlating with
"graph properties like density and diameter" (Sect. 7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DiGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph."""

    num_nodes: int
    num_edges: int
    is_weighted: bool
    num_dangling: int
    min_out_degree: int
    max_out_degree: int
    mean_out_degree: float
    max_in_degree: int
    reciprocity: float
    effective_diameter: float

    def as_dict(self) -> dict[str, object]:
        """Ordered name -> value mapping for tabular display."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "weighted": self.is_weighted,
            "dangling nodes": self.num_dangling,
            "out-degree (min/mean/max)": (
                f"{self.min_out_degree}/{self.mean_out_degree:.2f}/"
                f"{self.max_out_degree}"
            ),
            "max in-degree": self.max_in_degree,
            "reciprocity": round(self.reciprocity, 4),
            "effective diameter (est.)": round(self.effective_diameter, 2),
        }


def reciprocity(graph: DiGraph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    if graph.num_edges == 0:
        return 0.0
    edge_set = set(graph.edges())
    mutual = sum(1 for src, dst in edge_set if (dst, src) in edge_set)
    return mutual / len(edge_set)


def bfs_eccentricity(graph: DiGraph, source: int) -> int:
    """Largest finite BFS distance from ``source``."""
    distance = -np.ones(graph.num_nodes, dtype=np.int64)
    distance[source] = 0
    queue: deque[int] = deque([source])
    furthest = 0
    while queue:
        node = queue.popleft()
        for neighbor in graph.out_neighbors(node):
            neighbor = int(neighbor)
            if distance[neighbor] < 0:
                distance[neighbor] = distance[node] + 1
                furthest = max(furthest, int(distance[neighbor]))
                queue.append(neighbor)
    return furthest


def effective_diameter(graph: DiGraph, samples: int = 16, seed: int = 0) -> float:
    """Mean BFS eccentricity over sampled sources — a cheap diameter proxy.

    Exact diameters need all-pairs BFS; sampled eccentricities are the
    standard estimate and sufficient for the density/diameter heuristics.
    """
    if graph.num_nodes == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    sources = rng.choice(
        graph.num_nodes, size=min(samples, graph.num_nodes), replace=False
    )
    return float(np.mean([bfs_eccentricity(graph, int(s)) for s in sources]))


def graph_stats(graph: DiGraph, diameter_samples: int = 16, seed: int = 0) -> GraphStats:
    """Compute the full :class:`GraphStats` bundle."""
    out_degrees = graph.out_degrees
    in_degrees = graph.in_degrees()
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        is_weighted=graph.is_weighted,
        num_dangling=int((out_degrees == 0).sum()) if graph.num_nodes else 0,
        min_out_degree=int(out_degrees.min()) if graph.num_nodes else 0,
        max_out_degree=int(out_degrees.max()) if graph.num_nodes else 0,
        mean_out_degree=float(out_degrees.mean()) if graph.num_nodes else 0.0,
        max_in_degree=int(in_degrees.max()) if graph.num_nodes else 0,
        reciprocity=reciprocity(graph),
        effective_diameter=effective_diameter(
            graph, samples=diameter_samples, seed=seed
        ),
    )
