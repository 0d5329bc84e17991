"""Exact PPV computation — the ground truth every approximation is scored
against (the "naive iterative method" of Sect. 2).

Semantics follow the tour model of Eq. 1-2 exactly: the PPV is

    r_q = alpha * sum_{k>=0} (1 - alpha)^k (P^T)^k e_q

where ``P`` is the out-degree-normalised transition matrix.  A walk that
reaches a dangling node (out-degree 0) simply ends — no tour continues from
it — so on graphs with dangling nodes ``sum(r_q) < 1``; on dangling-free
graphs (all graphs in the paper's evaluation, and all generator outputs
here) ``r_q`` is a probability distribution and the paper's query-time
error identity (Eq. 6) is exact.

These solvers are the one place the library runs on scipy's sparse
products (and ``repro.core.schedule_length``, through the same
operator): ``scipy.sparse`` is imported when an operator is built, so
importing this module — as ``repro`` does — costs a process nothing
until exact ground truth is asked for.  Serving and the index build
never ask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA

if TYPE_CHECKING:
    from scipy import sparse


def _ppv_operator(graph: DiGraph) -> sparse.csr_matrix:
    """``P^T`` as CSR (column-stochastic up to dangling nodes); imports
    ``scipy.sparse`` through :meth:`DiGraph.transition_matrix`."""
    return graph.transition_matrix().T.tocsr()


def exact_ppv(
    graph: DiGraph,
    query: int,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> np.ndarray:
    """Exact PPV w.r.t. a single query node by power iteration.

    Parameters
    ----------
    graph:
        The graph.
    query:
        Query node id.
    alpha:
        Teleport probability.
    tol:
        Stop when the L1 norm of the next Neumann-series term falls below
        ``tol`` (the remaining tail is then at most ``tol / alpha``).
    max_iter:
        Hard iteration cap.

    Returns
    -------
    numpy.ndarray
        Score vector of length ``n``.
    """
    if not 0 <= query < graph.num_nodes:
        raise ValueError(f"query node {query} out of range")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    operator = _ppv_operator(graph)
    term = np.zeros(graph.num_nodes)
    term[query] = alpha
    scores = term.copy()
    for _ in range(max_iter):
        term = (1.0 - alpha) * (operator @ term)
        scores += term
        if term.sum() < tol:
            break
    return scores


def exact_ppv_matrix(
    graph: DiGraph,
    queries: np.ndarray | list[int],
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> np.ndarray:
    """Exact PPVs for a batch of query nodes.

    Vectorised Neumann summation over a block of unit vectors — one sparse
    mat-mat per iteration, much faster than per-query loops when preparing
    workload ground truth.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(queries), n)``; row ``i`` is the PPV of
        ``queries[i]``.
    """
    queries = np.asarray(queries, dtype=np.int64)
    if queries.size and (queries.min() < 0 or queries.max() >= graph.num_nodes):
        raise ValueError("query node out of range")
    operator = _ppv_operator(graph)
    n = graph.num_nodes
    term = np.zeros((n, queries.size))
    term[queries, np.arange(queries.size)] = alpha
    scores = term.copy()
    for _ in range(max_iter):
        term = (1.0 - alpha) * (operator @ term)
        scores += term
        if term.sum() < tol * max(queries.size, 1):
            break
    return scores.T.copy()


def exact_ppv_dense_solve(
    graph: DiGraph, query: int, alpha: float = DEFAULT_ALPHA
) -> np.ndarray:
    """Exact PPV by a direct linear solve ``(I - (1-alpha) P^T) r = alpha e_q``.

    Exact to machine precision; dense, so only for small graphs (tests use
    it as an independent oracle against :func:`exact_ppv`).
    """
    n = graph.num_nodes
    matrix = np.eye(n) - (1.0 - alpha) * _ppv_operator(graph).toarray()
    rhs = np.zeros(n)
    rhs[query] = alpha
    return np.linalg.solve(matrix, rhs)
