"""Prime subgraphs and prime PPVs (Definition 2, Algorithm 1's inner step).

The prime PPV of a node ``v`` aggregates the reachability of exactly the
tours in ``T^0(v)`` — tours from ``v`` that pass through *no interior hub*.
The paper extracts the prime subgraph by depth-first search (backtracking
at hub nodes and at nodes whose reachability falls below ``epsilon``) and
runs power iteration on it.  We compute the identical quantity directly
with a level-synchronous *push*: probability mass starts at ``v`` and flows
along out-edges; a hub absorbs any mass that arrives (it is a *border* of
the prime subgraph), every other node keeps ``alpha`` of the arriving mass
as score and forwards the rest; mass below ``epsilon`` is scored but not
forwarded (the "faraway node" cut-off).

Beyond the score vector the push also yields the **border arrival masses**
— for each border hub ``h``, the total probability of walking from ``v`` to
``h`` without stopping and without crossing another hub.  These are the
quantities the online engine splices in Theorem 4: extending a partition by
one hub multiplies the *arrival* mass (not the score, which already
includes the ``alpha`` stop factor) into the hub's own prime PPV.  Keeping
arrival masses explicit also fixes a subtle double-count in Eq. 12 as
printed: a tour that *ends* at a hub must not be re-counted through the
zero-length "trivial tour" inside ``r^0_h(h)``; arrival masses exclude it
by construction (the initial unit of mass at the push source is expanded,
never recorded as an arrival).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import native
from repro.graph.digraph import DiGraph
from repro.graph.pagerank import DEFAULT_ALPHA

DEFAULT_EPSILON = 1e-8
"""Reachability cut-off for prime-subgraph exploration (Sect. 5.1)."""

_DENSE_AGGREGATION_LIMIT = 1 << 23
"""A push round aggregates with a dense ``nodes``-slot bincount buffer
when it fits under this size *and* the round is dense enough to amortise
scanning it; sparse rounds, and every round on a larger graph, use
sort-based grouping."""


@dataclass(frozen=True)
class PrimePPV:
    """Sparse prime PPV of one source node.

    Attributes
    ----------
    source:
        The node the tours start from.
    nodes:
        Sorted node ids with non-zero score (the prime subgraph, borders
        included).
    scores:
        Scores aligned with ``nodes``; entry for node ``p`` is
        ``r^0_source(p)``, the summed reachability of hub-interior-free
        tours from ``source`` to ``p``.
    border_hubs:
        Sorted hub ids reachable without crossing another hub —
        ``H'(source)``, the neighbouring hubs of Definition 2.
    border_masses:
        Arrival masses aligned with ``border_hubs``: the probability of a
        non-stopping, hub-interior-free walk from ``source`` ending its
        segment at that hub.  ``score_at_hub = alpha * border_mass`` plus
        nothing else, except when ``source`` itself is the hub.
    edges_touched:
        Edge traversals the push performed — the scale-independent work
        measure reported alongside wall-clock time in the benchmarks.
    """

    source: int
    nodes: np.ndarray
    scores: np.ndarray
    border_hubs: np.ndarray
    border_masses: np.ndarray
    edges_touched: int = 0

    def to_dense(self, num_nodes: int) -> np.ndarray:
        """Dense score vector of length ``num_nodes``."""
        dense = np.zeros(num_nodes)
        dense[self.nodes] = self.scores
        return dense

    def score_of(self, node: int) -> float:
        """Score of one node (0.0 if outside the support)."""
        position = np.searchsorted(self.nodes, node)
        if position < self.nodes.size and self.nodes[position] == node:
            return float(self.scores[position])
        return 0.0

    @property
    def mass(self) -> float:
        """Total scored probability mass (L1 norm of the vector)."""
        return float(self.scores.sum())

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint."""
        return (
            self.nodes.nbytes
            + self.scores.nbytes
            + self.border_hubs.nbytes
            + self.border_masses.nbytes
        )


def _max_rounds(alpha: float, epsilon: float) -> int:
    """Rounds after which all residual mass is provably below ``epsilon``.

    Total residual after ``k`` rounds is at most ``(1 - alpha)^k``, so
    ``k = log(epsilon) / log(1 - alpha)`` bounds the level-synchronous push.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return max(4, int(math.ceil(math.log(epsilon) / math.log(1.0 - alpha))) + 4)


def prime_ppv(
    graph: DiGraph,
    source: int,
    hub_mask: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = DEFAULT_EPSILON,
    *,
    _numpy_rounds: bool = False,
) -> PrimePPV:
    """Compute the prime PPV of ``source`` by level-synchronous push.

    Parameters
    ----------
    graph:
        The full graph (the prime subgraph is discovered on the fly).
    source:
        Start node.  May itself be a hub: the *initial* unit of mass is
        always expanded (a tour's starting position never counts towards
        hub length), but mass that cycles back is absorbed like at any
        other hub.
    hub_mask:
        Boolean array of length ``n`` marking hub nodes.
    alpha:
        Teleport probability.
    epsilon:
        Expansion cut-off: arriving mass below this is scored but not
        forwarded.

    Notes
    -----
    Work per round is linear in the touched edges; the number of rounds is
    bounded by ``log(epsilon) / log(1 - alpha)``.  The computation is exact
    up to the ``epsilon`` truncation (identical in kind to the paper's DFS
    cut-off).

    This is a thin wrapper over :func:`prime_push_many` with a batch of
    one, so a single push and a batch share one kernel.  Every row of a
    batched call is this push of its source, byte for byte, in any
    batch, order or thread count (pinned by ``tests/test_prime.py`` and
    ``tests/test_native_kernels.py``).
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source node {source} out of range")
    scores, border, edges_touched = prime_push_many(
        graph,
        np.array([source], dtype=np.int64),
        hub_mask,
        alpha=alpha,
        epsilon=epsilon,
        _numpy_rounds=_numpy_rounds,
    )
    row = scores[0]
    border_row = border[0]
    # Every touched node keeps alpha of a strictly positive arrival mass,
    # so the support is exactly the non-zero entries of the dense row.
    support = np.nonzero(row)[0].astype(np.int64)
    border_hubs = np.nonzero(border_row)[0].astype(np.int64)
    return PrimePPV(
        source=source,
        nodes=support,
        scores=row[support],
        border_hubs=border_hubs,
        border_masses=border_row[border_hubs],
        edges_touched=int(edges_touched[0]),
    )


def prime_push_many(
    graph: DiGraph,
    sources: np.ndarray,
    hub_mask: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = DEFAULT_EPSILON,
    *,
    _numpy_rounds: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-synchronous prime push for a *batch* of sources at once.

    Every row is :func:`prime_ppv` of its source, byte for byte: the
    rows share nothing — each runs its own rounds, keyed by node, and
    picks each round's aggregation rule from its own totals — so any
    batch, order or thread count gives a row the bytes of its lone push.
    A batch saves the per-call dispatch, not arithmetic.

    The rounds run in the compiled kernel of :mod:`repro.native`, the
    batch's rows taken by up to :func:`repro.native.push_threads`
    threads (this process's CPUs, capped at the row count).
    ``_numpy_rounds`` runs them in numpy instead, one row at a time
    (:func:`_push_rounds_numpy`): one schedule — same rounds, same
    aggregation rule chosen by the same predicate, same order inside
    every sum — and identical bytes for identical arguments
    (``tests/test_native_kernels.py``).  It is the caller's choice, not
    a selection: only the offline build makes it, see
    :func:`repro.core.index._build_chunk` for why.

    Returns
    -------
    (scores, border, edges_touched):
        ``scores``: dense ``(len(sources), n)`` prime-PPV rows.
        ``border``: dense ``(len(sources), n)`` border arrival masses
        (non-zero only at hub columns).
        ``edges_touched``: ``int64 (len(sources),)`` per-source edge
        traversals.
    """
    n = graph.num_nodes
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source node out of range")
    if hub_mask.shape != (n,):
        raise ValueError("hub_mask must have one entry per node")
    num_sources = sources.size
    scores = np.zeros((num_sources, n))
    border = np.zeros((num_sources, n))
    edges_touched = np.zeros(num_sources, dtype=np.int64)
    if num_sources == 0:
        return scores, border, edges_touched
    max_rounds = _max_rounds(alpha, epsilon)
    if _numpy_rounds:
        for row, source in enumerate(sources.tolist()):
            edges_touched[row] = _push_rounds_numpy(
                graph, source, hub_mask, alpha, epsilon, max_rounds,
                scores[row], border[row],
            )
    else:
        # The kernel takes raw addresses: every array is checked here,
        # once, for the dtype and C layout it reads (a no-op on a
        # DiGraph's own arrays), and held until the call returns.
        arrays = (
            np.require(graph.indptr, np.int64, "C"),
            np.require(graph.indices, np.int32, "C"),
            np.require(graph.edge_probabilities, np.float64, "C"),
            np.require(sources, np.int64, "C"),
            np.require(hub_mask, np.bool_, "C"),
        )
        indptr, indices, probs, rows, hubs = (a.ctypes.data for a in arrays)
        if native.load().repro_prime_push_many(
            n, indptr, indices, probs, num_sources, rows, hubs,
            alpha, epsilon, max_rounds, _DENSE_AGGREGATION_LIMIT,
            scores.ctypes.data, border.ctypes.data, edges_touched.ctypes.data,
            native.push_threads(num_sources),
        ) < 0:
            raise MemoryError("prime_push_many: the push kernel ran out of memory")
    return scores, border, edges_touched


def _push_rounds_numpy(
    graph: DiGraph,
    source: int,
    hub_mask: np.ndarray,
    alpha: float,
    epsilon: float,
    max_rounds: int,
    scores: np.ndarray,
    border: np.ndarray,
) -> int:
    """One source's rounds of :func:`prime_push_many` in numpy, into its
    zeroed ``scores`` / ``border`` rows; returns the edges touched.  The
    offline build's ``_numpy_rounds``, and the oracle ``kernels.c``'s
    ``repro_prime_push_many`` is pinned against row by row."""
    n = graph.num_nodes
    indptr, indices = graph.indptr, graph.indices
    out_degrees = graph.out_degrees
    edge_probabilities = graph.edge_probabilities

    active = np.array([source], dtype=np.int64)
    masses = np.ones(1)
    edges_touched = 0
    for round_ in range(max_rounds):
        scores[active] += alpha * masses

        # The initial unit at the source always expands.
        absorbed = hub_mask[active] & (round_ > 0)
        border[active[absorbed]] += masses[absorbed]

        expand = ~absorbed & (masses >= epsilon) & (out_degrees[active] > 0)
        expand_nodes = active[expand]
        expand_masses = masses[expand]
        if expand_nodes.size == 0:
            break

        counts = out_degrees[expand_nodes]
        starts = indptr[expand_nodes]
        total = int(counts.sum())
        edges_touched += total
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        edge_ids = np.repeat(starts, counts) + offsets
        targets = indices[edge_ids].astype(np.int64)
        shares = (
            (1.0 - alpha)
            * np.repeat(expand_masses, counts)
            * edge_probabilities[edge_ids]
        )
        # Aggregate per target: a dense element-order scatter-add when
        # the round is dense enough, else a stable sort and reduceat.
        if n <= _DENSE_AGGREGATION_LIMIT and total * 16 >= n:
            bins = np.bincount(targets, weights=shares, minlength=n)
            active = np.nonzero(bins)[0]
            masses = bins[active]
        else:
            order = np.argsort(targets, kind="stable")
            sorted_targets = targets[order]
            boundaries = np.nonzero(np.diff(sorted_targets))[0] + 1
            group_starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), boundaries)
            )
            active = sorted_targets[group_starts]
            masses = np.add.reduceat(shares[order], group_starts)
    return edges_touched
