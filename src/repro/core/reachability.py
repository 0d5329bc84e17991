"""The tour model: reachability and inverse P-distance (Eq. 1-2).

A *tour* is any walk ``v0 -> v1 -> ... -> vL`` (cycles allowed).  Its
reachability is

    R(t) = (1 - alpha)^L * alpha * prod_i 1 / out(v_i)      (Eq. 2)

and a node's PPV score equals the sum of reachabilities over all tours from
the query to it (Eq. 1, the inverse P-distance identity of Jeh & Widom).

This module gives the literal, enumerate-all-tours implementation.  It is
exponential and exists as the *executable specification*: tests cross-check
the fast solvers (exact power iteration, prime push, the full FastPPV
engine) against sums over explicitly enumerated tours on small graphs —
exactly the computation of the paper's Fig. 1(b) example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA
from repro.metrics.ranking import top_k_nodes

Tour = tuple[int, ...]

DEFAULT_MAX_TOUR_LENGTH = 6
"""Served default for :func:`reachability_query`.  Enumeration is
exponential in tour length, so the served family keeps this small."""


def tour_reachability(graph: DiGraph, tour: Sequence[int], alpha: float = DEFAULT_ALPHA) -> float:
    """Reachability ``R(t)`` of one tour (Eq. 2).

    The tour is a node sequence; a length-0 tour ``(v,)`` has reachability
    ``alpha`` (the surfer teleport-stops immediately).  On weighted graphs
    the per-edge factor ``1/out_degree`` generalises to the edge's
    normalised step probability.

    Raises
    ------
    ValueError
        If consecutive nodes are not joined by an edge.
    """
    if len(tour) == 0:
        raise ValueError("a tour contains at least its starting node")
    probability = alpha
    for src, dst in zip(tour, tour[1:]):
        probability *= (1.0 - alpha) * graph.edge_probability(src, dst)
    return probability


def enumerate_tours(
    graph: DiGraph,
    source: int,
    max_length: int,
    target: int | None = None,
) -> Iterator[Tour]:
    """All tours from ``source`` of natural length ``<= max_length``.

    Cycles are allowed, so the count grows exponentially with
    ``max_length``; keep it small (tests use <= 12).  When ``target`` is
    given, only tours ending there are yielded.
    """
    stack: list[Tour] = [(source,)]
    while stack:
        tour = stack.pop()
        if target is None or tour[-1] == target:
            yield tour
        if len(tour) - 1 < max_length:
            for nbr in graph.out_neighbors(tour[-1]):
                stack.append(tour + (int(nbr),))


def hub_length(tour: Sequence[int], hubs: frozenset[int] | set[int]) -> int:
    """Number of *interior* hub occurrences on a tour (Definition 1).

    The first and last positions are excluded — a tour may start or end at
    a hub without that occurrence counting.
    """
    if len(tour) <= 2:
        return 0
    return sum(1 for node in tour[1:-1] if node in hubs)


def brute_force_ppv(
    graph: DiGraph,
    source: int,
    max_length: int,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """PPV by summing Eq. 2 over all tours up to ``max_length`` (Eq. 1).

    Truncation error is at most ``(1 - alpha)^(max_length + 1)`` in L1
    (the total reachability of all longer tours), so with ``max_length=60``
    and ``alpha=0.15`` the result is exact to ~5e-5.
    """
    scores = np.zeros(graph.num_nodes)
    for tour in enumerate_tours(graph, source, max_length):
        scores[tour[-1]] += tour_reachability(graph, tour, alpha)
    return scores


@dataclass(frozen=True)
class ReachabilityResult:
    """Truncated-tour PPV scores with their certified truncation bound.

    The served form of :func:`brute_force_ppv`: ``scores`` sums Eq. 2
    over every tour of natural length ``<= max_length``, and
    ``truncation_bound = (1 - alpha)^(max_length + 1)`` upper-bounds the
    total L1 mass of the tours that were cut off — the same
    accuracy-aware contract the scheduled engines carry.
    """

    query: int
    max_length: int
    alpha: float
    scores: np.ndarray = field(repr=False)
    truncation_bound: float = 0.0

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """Top ``k`` (node, score) pairs, score-descending, ties by node.

        Same deterministic order as every other served ranking
        (:func:`~repro.metrics.ranking.top_k_nodes`).
        """
        order = top_k_nodes(self.scores, int(k))
        return list(zip(order.tolist(), self.scores[order].tolist()))


def reachability_query(
    graph: DiGraph,
    source: int,
    max_length: int = DEFAULT_MAX_TOUR_LENGTH,
    alpha: float = DEFAULT_ALPHA,
) -> ReachabilityResult:
    """Serve :func:`brute_force_ppv` with its truncation certificate.

    Raises
    ------
    ValueError
        If ``source`` is out of range, ``max_length`` is negative, or
        ``alpha`` is outside ``(0, 1]``.
    """
    if not 0 <= source < graph.num_nodes:
        raise ValueError(f"source {source} out of range")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    scores = brute_force_ppv(graph, source, max_length, alpha=alpha)
    return ReachabilityResult(
        query=int(source),
        max_length=int(max_length),
        alpha=float(alpha),
        scores=scores,
        truncation_bound=float((1.0 - alpha) ** (max_length + 1)),
    )


def brute_force_increment(
    graph: DiGraph,
    source: int,
    hubs: frozenset[int] | set[int],
    level: int,
    max_length: int,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """PPV increment over the partition ``T^level`` by tour enumeration.

    Sums Eq. 2 over tours with exactly ``level`` interior hubs — the
    executable form of the increment the online engine assembles via
    Theorem 4.  Used only in tests.
    """
    hubset = frozenset(hubs)
    scores = np.zeros(graph.num_nodes)
    for tour in enumerate_tours(graph, source, max_length):
        if hub_length(tour, hubset) == level:
            scores[tour[-1]] += tour_reachability(graph, tour, alpha)
    return scores
