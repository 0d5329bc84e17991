"""Global (non-personalised) PageRank.

Used by hub selection (the "popularity" half of expected utility, Eq. 7)
and by the MonteCarlo baseline's hub policy.  Implemented as standard power
iteration with uniform teleportation; dangling mass is redistributed
uniformly, the textbook convention.

Each step's ``P^T @ rank`` runs on the graph's own CSR arrays, with numpy
alone: one ``np.bincount`` of ``probability * rank[source]`` over the edges
in CSR order.  Within a target's bin the edges arrive in source order (and
in row order between parallel edges), and each bin's sum starts at 0.0, so
the additions happen in exactly the order of scipy's CSR mat-vec over
``graph.transition_matrix().T.tocsr()`` and every rank is bit for bit what
that product gives (``tests/oracles.py::reference_global_pagerank`` is the
scipy iteration, pinned against this one).  Hub selection, and so every
index byte, does not depend on whether scipy is installed.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph

DEFAULT_ALPHA = 0.15
"""Teleport probability used throughout the paper (Sect. 6, "Parameters")."""


def global_pagerank(
    graph: DiGraph,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """PageRank scores of every node.

    Parameters
    ----------
    graph:
        The graph.
    alpha:
        Teleport probability (the paper's ``alpha = 0.15``).
    tol:
        L1 convergence tolerance between successive iterates.
    max_iter:
        Iteration cap; the result at the cap is returned if not converged
        (PageRank contracts at rate ``1 - alpha``, so 200 iterations are
        ample for any practical tolerance).

    Returns
    -------
    numpy.ndarray
        Probability vector of length ``n`` summing to 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0)
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
    targets = graph.indices
    probabilities = graph.edge_probabilities
    dangling = graph.out_degrees == 0
    rank = np.full(n, 1.0 / n)
    teleport = np.full(n, alpha / n)
    for _ in range(max_iter):
        dangling_mass = rank[dangling].sum()
        inflow = np.bincount(
            targets, weights=probabilities * rank[sources], minlength=n
        )
        new_rank = (1.0 - alpha) * (inflow + dangling_mass / n) + teleport
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            break
    return rank
