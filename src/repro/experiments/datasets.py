"""Canonical evaluation graphs — scaled-down stand-ins for Sect. 6's data.

The paper's DBLP has 2.0M nodes / 8.8M edges and its LiveJournal sample
1.2M / 4.8M.  At ``scale=1.0`` ours have ~9k and ~6k nodes — about 200x
smaller, the size pure-Python kernels evaluate in minutes.  The structural
knobs (tripartite communities, ring locality, Zipf skew, reciprocity) are
chosen so the algorithmic behaviour matches; see :mod:`repro.graph.generators`.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.graph.generators import BibliographicGraph, bibliographic_graph, social_graph


def dblp_graph(scale: float = 1.0, seed: int = 7) -> BibliographicGraph:
    """The "DBLP" evaluation graph (undirected, tripartite, timestamped).

    ``scale`` multiplies all three node-class sizes; 1.0 gives
    3000 authors / 6000 papers / 80 venues (~9k nodes, ~36k edges).
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return bibliographic_graph(
        num_authors=max(20, int(3000 * scale)),
        num_papers=max(40, int(6000 * scale)),
        num_venues=max(4, int(80 * scale)),
        seed=seed,
    )


def livejournal_graph(scale: float = 1.0, seed: int = 11) -> DiGraph:
    """The "LiveJournal" evaluation graph (directed, local, reciprocated).

    ``scale`` multiplies the node count; 1.0 gives 6000 nodes (~40k edges).
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return social_graph(num_nodes=max(50, int(6000 * scale)), seed=seed)
