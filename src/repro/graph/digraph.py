"""Immutable CSR directed graph.

The whole library funnels through this one structure.  Nodes are dense
integers ``0..n-1``; the out-adjacency is stored as two numpy arrays in
compressed-sparse-row form (``indptr`` of length ``n+1`` and ``indices`` of
length ``m``), which keeps the hot kernels (push, power iteration, random
walks) allocation-free and cache-friendly.

An optional node-label table maps external identifiers (author names, user
ids, ...) to the dense integer space, so example applications can speak in
domain terms.

numpy is the only import: serving, hub selection and the index build never
need scipy.  :meth:`DiGraph.transition_matrix` imports ``scipy.sparse``
when it is called, for the exact solvers that want a scipy matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


class DiGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; out-neighbours of node ``u``
        are ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        ``int32`` array of length ``m`` holding neighbour ids.
    labels:
        Optional sequence of ``n`` hashable node labels.  When given, the
        reverse mapping is built lazily on first :meth:`node_id` call.

    Notes
    -----
    Instances are immutable: the constructor copies nothing but marks the
    arrays read-only.  Use :class:`repro.graph.GraphBuilder` or
    :func:`repro.graph.from_edges` to construct graphs.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_weights",
        "_edge_probabilities",
        "_out_degree",
        "_labels",
        "_label_index",
        "_reverse",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[Hashable] | None = None,
        weights: np.ndarray | None = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise ValueError("indptr must have length n + 1 >= 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge endpoints out of range")
        if labels is not None and len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError("need exactly one weight per edge")
            if np.any(weights <= 0.0):
                raise ValueError("edge weights must be positive")
            weights.setflags(write=False)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._edge_probabilities: np.ndarray | None = None
        out_degree = np.diff(indptr).astype(np.int64)
        out_degree.setflags(write=False)
        self._out_degree = out_degree
        self._labels = list(labels) if labels is not None else None
        self._label_index: dict[Hashable, int] | None = None
        self._reverse: DiGraph | None = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._indices.size

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only)."""
        return self._indices

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries per-edge weights."""
        return self._weights is not None

    @property
    def weights(self) -> np.ndarray | None:
        """Per-edge weights aligned with :attr:`indices` (or ``None``)."""
        return self._weights

    @property
    def edge_probabilities(self) -> np.ndarray:
        """Random-walk step probabilities per edge (row-normalised).

        The single array every kernel (push, power iteration, sampling)
        consumes: entry ``e`` is the probability of the surfer at the
        edge's source choosing that edge, i.e. ``w_e / sum of the source's
        out-weights`` — or ``1 / out_degree`` when unweighted.  Built
        lazily and cached; read-only.
        """
        if self._edge_probabilities is None:
            if self._weights is None:
                with np.errstate(divide="ignore"):
                    inverse = np.where(
                        self._out_degree > 0,
                        1.0 / np.maximum(self._out_degree, 1),
                        0.0,
                    )
                probabilities = np.repeat(inverse, self._out_degree)
            else:
                row_ids = np.repeat(
                    np.arange(self.num_nodes, dtype=np.int64), self._out_degree
                )
                row_sums = np.zeros(self.num_nodes)
                np.add.at(row_sums, row_ids, self._weights)
                probabilities = self._weights / row_sums[row_ids]
            probabilities.setflags(write=False)
            self._edge_probabilities = probabilities
        return self._edge_probabilities

    def edge_probability(self, src: int, dst: int) -> float:
        """Step probability of the edge ``src -> dst``.

        Raises
        ------
        ValueError
            If the edge does not exist.
        """
        start, end = self._indptr[src], self._indptr[src + 1]
        row = self._indices[start:end]
        hits = np.nonzero(row == dst)[0]
        if hits.size == 0:
            raise ValueError(f"no edge {src} -> {dst}")
        return float(self.edge_probabilities[start + hits[0]])

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array (read-only)."""
        return self._out_degree

    def out_degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        return int(self._out_degree[node])

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node`` as a read-only array view."""
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (computed on demand)."""
        return np.bincount(self._indices, minlength=self.num_nodes).astype(np.int64)

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        row = self.out_neighbors(src)
        return bool(np.any(row == dst))

    def nodes(self) -> range:
        """Iterable of all node ids."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over directed edges as ``(src, dst)`` pairs."""
        for u in range(self.num_nodes):
            for v in self.out_neighbors(u):
                yield u, int(v)

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #

    @property
    def labels(self) -> list[Hashable] | None:
        """Node labels if the graph was built with them, else ``None``."""
        return self._labels

    def label(self, node: int) -> Hashable:
        """Label of ``node`` (the node id itself if unlabelled)."""
        if self._labels is None:
            return node
        return self._labels[node]

    def node_id(self, label: Hashable) -> int:
        """Dense node id for ``label``.

        Raises
        ------
        KeyError
            If the graph is unlabelled or the label is unknown.
        """
        if self._labels is None:
            raise KeyError("graph has no labels")
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self._labels)}
        return self._label_index[label]

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #

    def reverse(self) -> "DiGraph":
        """The graph with every edge reversed (cached after first call)."""
        if self._reverse is None:
            n = self.num_nodes
            srcs = np.repeat(
                np.arange(n, dtype=np.int32), np.diff(self._indptr).astype(np.int64)
            )
            order = np.argsort(self._indices, kind="stable")
            rev_indices = srcs[order]
            rev_indptr = np.zeros(n + 1, dtype=np.int64)
            counts = np.bincount(self._indices, minlength=n)
            np.cumsum(counts, out=rev_indptr[1:])
            rev_weights = (
                self._weights[order] if self._weights is not None else None
            )
            rev = DiGraph(
                rev_indptr, rev_indices, labels=self._labels, weights=rev_weights
            )
            rev._reverse = self
            self._reverse = rev
        return self._reverse

    def transition_matrix(self) -> sparse.csr_matrix:
        """Row-stochastic random-walk matrix ``P``.

        ``P[u, v]`` is the per-step probability of walking ``u -> v``
        (``1/out(u)`` unweighted, weight-proportional otherwise).
        Dangling nodes (out-degree zero) produce an all-zero row; callers
        decide how to treat the lost mass (the PPV solvers in
        :mod:`repro.core.exact` let the walk end there, matching the
        tour-reachability semantics of Eq. 1-2).  Imports
        ``scipy.sparse`` on call: scipy is needed only here.
        """
        from scipy import sparse

        n = self.num_nodes
        return sparse.csr_matrix(
            (
                self.edge_probabilities.copy(),
                self._indices.astype(np.int64),
                self._indptr,
            ),
            shape=(n, n),
        )

    def subgraph(self, nodes: Iterable[int]) -> tuple["DiGraph", np.ndarray]:
        """Node-induced subgraph.

        Returns
        -------
        (subgraph, node_map):
            ``node_map[i]`` is the original id of subgraph node ``i``.
        """
        keep = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        indptr = [0]
        out: list[np.ndarray] = []
        out_weights: list[np.ndarray] = []
        for u in keep:
            start, end = self._indptr[int(u)], self._indptr[int(u) + 1]
            nbrs = remap[self._indices[start:end]]
            mask = nbrs >= 0
            out.append(nbrs[mask].astype(np.int32))
            if self._weights is not None:
                out_weights.append(self._weights[start:end][mask])
            indptr.append(indptr[-1] + int(mask.sum()))
        indices = (
            np.concatenate(out) if out else np.empty(0, dtype=np.int32)
        )
        weights = None
        if self._weights is not None:
            weights = (
                np.concatenate(out_weights) if out_weights else np.empty(0)
            )
        labels = None
        if self._labels is not None:
            labels = [self._labels[int(u)] for u in keep]
        sub = DiGraph(
            np.asarray(indptr, dtype=np.int64), indices, labels=labels,
            weights=weights,
        )
        return sub, keep

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if (self._weights is None) != (other._weights is None):
            return False
        weights_equal = (
            self._weights is None
            or np.array_equal(self._weights, other._weights)
        )
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and weights_equal
        )

    def __hash__(self) -> int:  # graphs are immutable, so hashing is safe
        return hash((self.num_nodes, self.num_edges, self._indices.tobytes()[:256]))

    def __repr__(self) -> str:
        return f"DiGraph(n={self.num_nodes}, m={self.num_edges})"
