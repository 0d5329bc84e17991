"""Graph substrate: compact CSR digraph, builders, I/O, PageRank, generators.

Everything in :mod:`repro` operates on :class:`~repro.graph.DiGraph`, an
immutable numpy-backed compressed-sparse-row directed graph.  Undirected
graphs (such as the paper's DBLP network) are represented by storing each
edge in both directions.
"""

from repro.graph.analysis import graph_stats
from repro.graph.build import GraphBuilder, from_edges, from_weighted_edges
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    bibliographic_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    social_graph,
    star_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.pagerank import global_pagerank
from repro.graph.sampling import edge_sample, snapshot_series

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "from_weighted_edges",
    "read_edge_list",
    "write_edge_list",
    "global_pagerank",
    "bibliographic_graph",
    "social_graph",
    "erdos_renyi_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "edge_sample",
    "snapshot_series",
    "graph_stats",
]
