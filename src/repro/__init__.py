"""FastPPV: incremental and accuracy-aware Personalized PageRank.

A from-scratch reproduction of Zhu, Fang, Chang, Ying (PVLDB 2013),
"Incremental and Accuracy-Aware Personalized PageRank through Scheduled
Approximation".

Quickstart
----------
>>> from repro import (
...     social_graph, select_hubs, build_index, FastPPV, StopAfterIterations,
... )
>>> graph = social_graph(num_nodes=500, seed=1)
>>> hubs = select_hubs(graph, num_hubs=50)
>>> index = build_index(graph, hubs)
>>> engine = FastPPV(graph, index)
>>> result = engine.query(0, stop=StopAfterIterations(2))
>>> result.l1_error < 0.2
True

See ``README.md`` for the architecture overview.
"""

from repro.core import (
    FastPPV,
    HubPolicy,
    PPVIndex,
    QueryResult,
    StopAfterIterations,
    StopAfterTime,
    StopAtL1Error,
    StopWhenCertified,
    TopKResult,
    any_of,
    autotune_hub_count,
    build_index,
    exact_ppv,
    exact_ppv_matrix,
    l1_error_bound,
    multi_node_ppv,
    query_time_l1_error,
    query_top_k,
    select_hubs,
)
from repro.graph import (
    DiGraph,
    GraphBuilder,
    bibliographic_graph,
    from_edges,
    from_weighted_edges,
    global_pagerank,
    read_edge_list,
    social_graph,
    write_edge_list,
)
from repro.serving import PPVService, QueryHandle, QuerySnapshot, QuerySpec


def _package_version() -> str:
    """The version, read once from installed package metadata; falls
    back to the in-tree constant when running straight from a source
    checkout (PYTHONPATH=src, nothing installed)."""
    try:
        from importlib.metadata import version

        return version("repro-fastppv")
    except Exception:
        return "1.1.0"


__version__ = _package_version()

__all__ = [
    "__version__",
    # graph
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "read_edge_list",
    "write_edge_list",
    "global_pagerank",
    "bibliographic_graph",
    "social_graph",
    # core
    "FastPPV",
    "PPVIndex",
    "QueryResult",
    "HubPolicy",
    "select_hubs",
    "build_index",
    "exact_ppv",
    "exact_ppv_matrix",
    "StopAfterIterations",
    "StopAtL1Error",
    "StopAfterTime",
    "any_of",
    "l1_error_bound",
    "query_time_l1_error",
    "multi_node_ppv",
    "query_top_k",
    "StopWhenCertified",
    "TopKResult",
    "autotune_hub_count",
    "from_weighted_edges",
    # serving
    "PPVService",
    "QuerySpec",
    "QueryHandle",
    "QuerySnapshot",
]
