"""Sparse-matrix lowering of the PPV index (the batch splice kernel).

The online engine's inner loop (Algorithm 2, lines 8-12) splices the prime
PPV of every frontier hub into the running estimate.  Done one hub at a
time this is a Python loop over dict entries; done for a *batch* of
queries it is two sparse matrix products.  This module lowers a
:class:`~repro.core.index.PPVIndex` into that matrix form, built once and
cached on the index:

* ``scores`` — CSR ``(H, n)``: row ``r`` is the (clipped) prime PPV of hub
  ``hub_ids[r]`` **with the trivial-tour correction folded in**: the hub's
  own entry is stored as ``r^0_h(h) - alpha`` so that splicing a frontier
  arrival mass ``m`` via ``m @ scores`` reproduces the scalar engine's
  ``estimate += m * entry.scores; estimate[h] -= alpha * m`` in a single
  product (see :mod:`repro.core.query` for why the zero-length tour is
  removed).
* ``borders`` — CSR ``(H, H)``: row ``r`` holds the border arrival masses
  of hub ``hub_ids[r]``, with columns in *hub-row* space, so one frontier
  iteration of Theorem 4 for a whole batch is ``frontier @ borders``.
* ``work`` — per-hub splice cost (``nodes.size + border_hubs.size``), the
  scale-independent work units the scalar engine accounts per expansion.

With the two matrices, one FastPPV iteration over a batch of ``B`` queries
whose frontiers are stacked into a CSR matrix ``F`` of shape ``(B, H)`` is::

    estimate += (F_gated @ scores).toarray()   # splice + trivial-tour fix
    frontier  =  F_gated @ borders             # next arrival masses

where ``F_gated`` keeps only the entries passing the per-query ``delta``
gate of Algorithm 2, line 9.

The lowering is cached on the ``PPVIndex`` instance (attribute
``_splice_matrix``); indexes are treated as immutable once queried —
:func:`repro.core.dynamic.update_index` returns a *new* index, so the
cache can never go stale through the supported update path.  Call
:func:`invalidate_splice_cache` after mutating ``index.entries`` in place.

Exact (order-preserving) form
-----------------------------
The matmul form above reassociates floating-point sums, which is fine for
the in-memory engine's ~1e-14 contract but not for the disk engine,
whose batch path promises scores **bitwise equal** to the scalar
per-query loop.  For those, the same lowering discipline is applied in an
order-preserving shape: :class:`SpliceBlock` assembles *fetched* prime
PPVs (a scheduling wave's working set) into append-only CSR blocks, and
:func:`splice_rounds_exact` executes each incremental round over a batch
as two sparse gather-multiply-scatter products whose per-element
accumulation order is exactly the scalar loop's — see
:func:`lower_entry` for why the trivial-tour correction is appended as a
trailing row element there instead of merged into the hub's own score.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV
from repro.core.query import QueryState, StoppingCondition

_CACHE_ATTR = "_splice_matrix"

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


@dataclass(frozen=True)
class SpliceMatrix:
    """Matrix form of a PPV index (see module docstring).

    Attributes
    ----------
    hub_ids:
        Sorted hub node ids; position in this array is the hub's *row*
        in both matrices (and its column in ``borders``).
    scores:
        CSR ``(H, n)`` of clipped prime-PPV scores, trivial-tour
        corrected (the hub's own column holds ``score - alpha``).
    borders:
        CSR ``(H, H)`` of border arrival masses in hub-row space.
    work:
        ``int64 (H,)``: per-hub work units of one splice
        (``nodes.size + border_hubs.size``).
    """

    hub_ids: np.ndarray
    scores: sparse.csr_matrix
    borders: sparse.csr_matrix
    work: np.ndarray

    @property
    def num_hubs(self) -> int:
        """Number of hub rows."""
        return self.hub_ids.size

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes (columns of ``scores``)."""
        return self.scores.shape[1]

    def rows_of(self, hubs: np.ndarray) -> np.ndarray:
        """Map hub node ids to matrix rows.

        Raises
        ------
        KeyError
            If any of ``hubs`` is not an indexed hub.
        """
        hubs = np.asarray(hubs, dtype=np.int64)
        if hubs.size == 0:
            return np.zeros(0, dtype=np.int64)
        if self.hub_ids.size == 0:
            raise KeyError(f"nodes {hubs.tolist()} are not indexed hubs")
        rows = np.searchsorted(self.hub_ids, hubs)
        clipped = np.minimum(rows, self.hub_ids.size - 1)
        valid = self.hub_ids[clipped] == hubs
        if not valid.all():
            missing = hubs[~valid]
            raise KeyError(f"nodes {missing.tolist()} are not indexed hubs")
        return rows


def lower_entry(
    entry: PrimePPV, alpha: float, exact: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Lower one prime PPV into a score row ``(columns, values)``.

    The scalar engine splices an arrival mass ``m`` as two operations:
    ``estimate[entry.nodes] += m * entry.scores`` followed by the
    trivial-tour correction ``estimate[hub] -= alpha * m``.  Both lowered
    forms fold the correction into the row so a splice is one product;
    they differ in *where*:

    ``exact=False`` (matmul form)
        The hub's own value is stored as ``score - alpha``.  One fused
        multiply reassociates the scalar engine's two operations —
        within its usual ~1e-14 round-off, not bitwise.

    ``exact=True`` (order-preserving form)
        A trailing ``(hub, -alpha)`` element is appended instead, so a
        *sequential* scatter-add over the row reproduces the scalar
        loop's operations in their original order: ``m * (-alpha)`` is
        bitwise ``-(alpha * m)`` and IEEE addition of a negated value is
        bitwise subtraction, hence bit-for-bit equality.

    Raises
    ------
    ValueError
        In matmul form, if the entry lacks its own score (clipped above
        ``alpha``) — the merge would silently lose the correction.
    """
    if exact:
        columns = np.empty(entry.nodes.size + 1, dtype=np.int64)
        columns[:-1] = entry.nodes
        columns[-1] = entry.source
        values = np.empty(entry.scores.size + 1, dtype=np.float64)
        values[:-1] = entry.scores
        values[-1] = -alpha
        return columns, values
    values = entry.scores.astype(np.float64, copy=True)
    own = np.searchsorted(entry.nodes, entry.source)
    if own >= entry.nodes.size or entry.nodes[own] != entry.source:
        raise ValueError(
            f"hub {entry.source} entry lacks its own score; was it "
            "clipped above alpha?"
        )
    values[own] -= alpha
    return entry.nodes, values


def build_splice_matrix(index: PPVIndex) -> SpliceMatrix:
    """Lower ``index`` into :class:`SpliceMatrix` form (no caching).

    Raises
    ------
    ValueError
        If the index has a hub in its mask with no stored entry, or an
        entry whose border hubs are not themselves indexed — either would
        make a batch splice silently diverge from the scalar engine.
    """
    hub_ids = np.asarray(sorted(index.entries), dtype=np.int64)
    mask_hubs = np.nonzero(index.hub_mask)[0]
    if not np.array_equal(hub_ids, mask_hubs):
        raise ValueError(
            "index entries do not cover the hub mask; the batch engine "
            "needs a prime PPV stored for every hub"
        )
    n = index.hub_mask.size
    alpha = index.alpha

    score_cols: list[np.ndarray] = []
    score_vals: list[np.ndarray] = []
    score_lens = np.zeros(hub_ids.size, dtype=np.int64)
    border_cols: list[np.ndarray] = []
    border_vals: list[np.ndarray] = []
    border_lens = np.zeros(hub_ids.size, dtype=np.int64)
    work = np.zeros(hub_ids.size, dtype=np.int64)

    for row, hub in enumerate(hub_ids.tolist()):
        entry = index.entries[hub]
        # Fold the trivial-tour correction of Algorithm 2 into the row
        # (matmul form; the disk engine uses the exact form instead).
        columns, values = lower_entry(entry, alpha, exact=False)
        score_cols.append(columns)
        score_vals.append(values)
        score_lens[row] = entry.nodes.size

        border_rows = np.searchsorted(hub_ids, entry.border_hubs)
        if entry.border_hubs.size and not np.array_equal(
            hub_ids[border_rows], entry.border_hubs
        ):
            raise ValueError(f"hub {hub} has border hubs outside the index")
        border_cols.append(border_rows)
        border_vals.append(entry.border_masses)
        border_lens[row] = entry.border_hubs.size
        work[row] = entry.nodes.size + entry.border_hubs.size

    def assemble(cols, vals, lens, width) -> sparse.csr_matrix:
        indptr = np.zeros(hub_ids.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        data = (
            np.concatenate(vals) if vals else np.zeros(0)
        )
        indices = (
            np.concatenate(cols).astype(np.int64)
            if cols
            else np.zeros(0, dtype=np.int64)
        )
        matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(hub_ids.size, width)
        )
        matrix.eliminate_zeros()
        return matrix

    return SpliceMatrix(
        hub_ids=hub_ids,
        scores=assemble(score_cols, score_vals, score_lens, n),
        borders=assemble(border_cols, border_vals, border_lens, hub_ids.size),
        work=work,
    )


def splice_matrix(index: PPVIndex) -> SpliceMatrix:
    """The cached :class:`SpliceMatrix` of ``index`` (built on first use)."""
    cached = getattr(index, _CACHE_ATTR, None)
    if cached is None:
        cached = build_splice_matrix(index)
        setattr(index, _CACHE_ATTR, cached)
    return cached


def invalidate_splice_cache(index: PPVIndex) -> None:
    """Drop the cached lowering (call after mutating ``index.entries``)."""
    if hasattr(index, _CACHE_ATTR):
        delattr(index, _CACHE_ATTR)


# --------------------------------------------------------------------- #
# Exact (order-preserving) lowering: the disk engine's splice kernel.


class _GrowableRows:
    """Append-only CSR row storage over amortised-doubling buffers.

    A :class:`SpliceBlock` grows every scheduling wave; rebuilding the
    concatenation from per-row arrays would copy the whole block per
    round (worst-case quadratic in total fetched payload).  Doubling
    buffers make each :meth:`add` amortised O(row nnz), and :meth:`csr`
    returns zero-copy views.
    """

    __slots__ = ("_indices", "_data", "_nnz", "_ends", "_indptr")

    def __init__(self) -> None:
        self._indices = np.empty(1024, dtype=np.int64)
        self._data = np.empty(1024, dtype=np.float64)
        self._nnz = 0
        self._ends: list[int] = [0]
        self._indptr: np.ndarray | None = None

    def add(self, columns: np.ndarray, values: np.ndarray) -> None:
        end = self._nnz + columns.size
        if end > self._indices.size:
            capacity = max(end, 2 * self._indices.size)
            indices = np.empty(capacity, dtype=np.int64)
            indices[: self._nnz] = self._indices[: self._nnz]
            data = np.empty(capacity, dtype=np.float64)
            data[: self._nnz] = self._data[: self._nnz]
            self._indices, self._data = indices, data
        self._indices[self._nnz : end] = columns
        self._data[self._nnz : end] = values
        self._nnz = end
        self._ends.append(end)
        self._indptr = None

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` views of the rows added so far."""
        if self._indptr is None:
            self._indptr = np.asarray(self._ends, dtype=np.int64)
        return self._indptr, self._indices[: self._nnz], self._data[: self._nnz]


class SpliceBlock:
    """Append-only CSR block of fetched prime PPVs (exact splice form).

    The disk engine cannot lower the whole index up front — hub payloads
    arrive from the :class:`~repro.storage.ppv_store.DiskPPVStore` wave
    by wave — so this block grows as hubs are fetched: :meth:`add`
    appends one hub's score row (:func:`lower_entry` ``exact=True``: the
    trivial-tour correction is a trailing ``(hub, -alpha)`` element) and
    its border row (columns are raw hub *node ids*; unlike
    :class:`SpliceMatrix` the border targets need not be resident yet).

    :meth:`gather` slices any row sequence back out as one concatenated
    ``(columns, values, lengths)`` triple per matrix — the input of the
    two scatter-add products in :func:`splice_rounds_exact` — without a
    per-row Python loop.
    """

    def __init__(self, alpha: float, num_nodes: int) -> None:
        self.alpha = alpha
        self.num_nodes = num_nodes
        self._row_lookup = np.full(num_nodes, -1, dtype=np.int64)
        self._num_rows = 0
        self._scores = _GrowableRows()
        self._borders = _GrowableRows()

    @property
    def num_rows(self) -> int:
        """Number of hub rows appended so far."""
        return self._num_rows

    def __contains__(self, hub: int) -> bool:
        return self._row_lookup[hub] >= 0

    def add(self, entry: PrimePPV) -> None:
        """Append one fetched prime PPV as a new row (idempotent)."""
        hub = int(entry.source)
        if self._row_lookup[hub] >= 0:
            return
        self._row_lookup[hub] = self._num_rows
        self._num_rows += 1
        columns, values = lower_entry(entry, self.alpha, exact=True)
        self._scores.add(columns, values)
        self._borders.add(
            entry.border_hubs.astype(np.int64, copy=False),
            entry.border_masses.astype(np.float64, copy=False),
        )

    def missing(self, hubs: np.ndarray) -> np.ndarray:
        """The subset of ``hubs`` without a row yet, first-need order,
        deduplicated."""
        absent = hubs[self._row_lookup[hubs] < 0]
        if absent.size == 0:
            return absent
        _, first = np.unique(absent, return_index=True)
        return absent[np.sort(first)]

    def rows_of(self, hubs: np.ndarray) -> np.ndarray:
        """Map hub node ids to block rows (all must be resident)."""
        rows = self._row_lookup[hubs]
        if rows.size and rows.min() < 0:
            raise KeyError(
                f"hubs {hubs[rows < 0].tolist()} are not in the block"
            )
        return rows

    @staticmethod
    def _take(indptr, indices, data, rows) -> tuple:
        """Concatenate CSR rows in the given (possibly repeated) order."""
        lens = indptr[rows + 1] - indptr[rows]
        total = int(lens.sum())
        if total == 0:
            return _EMPTY_I64, _EMPTY_F64, lens
        before = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=before[1:])
        take = np.repeat(indptr[rows] - before, lens) + np.arange(total)
        return indices[take], data[take], lens

    def gather(self, rows: np.ndarray) -> tuple:
        """Concatenated score and border rows for ``rows``, in order.

        Returns ``(score_cols, score_vals, score_lens, border_cols,
        border_vals, border_lens)`` where the ``lens`` arrays give each
        row's element count within the concatenation.
        """
        return (
            *self._take(*self._scores.csr(), rows),
            *self._take(*self._borders.csr(), rows),
        )


def splice_rounds_exact(
    estimates: np.ndarray,
    frontiers: "list[tuple[np.ndarray, np.ndarray]]",
    stop: StoppingCondition,
    alpha: float,
    delta: float,
    max_iterations: int,
    block: SpliceBlock,
    ensure: Callable[[np.ndarray], None],
    started: float,
    on_iteration: "Callable[[int, QueryState], None] | None" = None,
) -> "list[tuple[int, list[float], int, int, float]]":
    """Algorithm 2's incremental rounds for a batch, bitwise-exact.

    The vectorised twin of the per-hub dict loop
    (:func:`repro.core.query.scalar_splice_rounds`):
    each round stacks the delta-gated ``(query, hub)`` pairs of every
    in-flight query, gathers their block rows, and applies the two
    products as **sequential scatter-adds** (``np.add.at``) whose
    element order is (query, frontier position, row element) — the exact
    operation order of the scalar loop, so scores, error histories and
    next frontiers are bit-for-bit identical to running it per query
    (queries never share accumulation targets; see :func:`lower_entry`
    for the trivial-tour element).  The next frontier keeps the dict
    loop's *first-touch* hub order via ``np.unique(..., return_index=True)``.

    Parameters
    ----------
    estimates:
        ``(B, n)`` C-contiguous float64, mutated in place; row ``i`` is
        query ``i``'s running estimate (iteration 0 already applied).
    frontiers:
        Per query, ``(hub ids int64, arrival masses float64)`` in the
        scalar dict's iteration order; consumed and replaced.
    stop / alpha / delta / max_iterations:
        As in the scalar engines; ``stop`` is evaluated per query per
        round and must be stateless to mean the same thing it does
        scalar-side.
    block / ensure:
        The resident-row block and a callable that must make every hub
        id array passed to it resident (``ensure(missing)`` — fetch and
        :meth:`SpliceBlock.add`).
    on_iteration:
        Optional ``(query position, QueryState)`` callback, invoked once
        per executed iteration per query, iteration 0 included.

    Returns
    -------
    Per query: ``(iterations, error_history, hubs_expanded,
    requested_reads, seconds)`` where ``requested_reads`` counts the
    gated expansions — one scalar ``fetch`` call each — and ``seconds``
    is the time from ``started`` until the query retired.
    """
    batch, num_nodes = estimates.shape
    flat_estimates = estimates.reshape(-1)
    # Border accumulator in (query, node id) space; zeroed lazily after
    # each readout so one allocation serves every round.
    accumulator = np.zeros(batch * num_nodes)
    iterations = [0] * batch
    hubs_expanded = [0] * batch
    requested = [0] * batch
    seconds = [0.0] * batch
    error_history = [
        [1.0 - float(estimates[i].sum())] for i in range(batch)
    ]

    def state_of(i: int) -> QueryState:
        return QueryState(
            iteration=iterations[i],
            l1_error=error_history[i][-1],
            elapsed_seconds=time.perf_counter() - started,
            frontier_size=frontiers[i][0].size,
            scores=estimates[i],
        )

    if on_iteration is not None:
        for i in range(batch):
            on_iteration(i, state_of(i))

    active = list(range(batch))
    while active:
        runnable = []
        for i in active:
            if (
                frontiers[i][0].size == 0
                or iterations[i] >= max_iterations
                or stop.should_stop(state_of(i))
            ):
                seconds[i] = time.perf_counter() - started
            else:
                runnable.append(i)
        active = runnable
        if not runnable:
            break

        # Per-(query, hub) delta gate (Algorithm 2, line 9), then one
        # stacked fetch for every hub the round needs.
        kept: list[tuple[np.ndarray, np.ndarray]] = []
        for i in runnable:
            hubs, masses = frontiers[i]
            keep = alpha * masses > delta
            kept.append((hubs[keep], masses[keep]))
        needed = np.concatenate([hubs for hubs, _ in kept])
        if needed.size:
            absent = block.missing(needed)
            if absent.size:
                ensure(absent)

        # Stack the surviving (query, hub) pairs of the whole round and
        # apply the two products as order-preserving scatter-adds.
        counts = np.array([hubs.size for hubs, _ in kept], dtype=np.int64)
        if needed.size:
            all_rows = block.rows_of(needed)
            all_masses = np.concatenate([masses for _, masses in kept])
            (
                score_cols, score_vals, score_lens,
                border_cols, border_vals, border_lens,
            ) = block.gather(all_rows)
            offsets = np.repeat(
                np.asarray(runnable, dtype=np.int64) * num_nodes, counts
            )
            np.add.at(
                flat_estimates,
                np.repeat(offsets, score_lens) + score_cols,
                np.repeat(all_masses, score_lens) * score_vals,
            )
            np.add.at(
                accumulator,
                np.repeat(offsets, border_lens) + border_cols,
                np.repeat(all_masses, border_lens) * border_vals,
            )
            # Per-query border segments of the stacked arrays.
            per_query_border = np.zeros(len(runnable), dtype=np.int64)
            np.add.at(
                per_query_border,
                np.repeat(np.arange(len(runnable)), counts),
                border_lens,
            )
            segment_ends = np.cumsum(per_query_border)
        for position, i in enumerate(runnable):
            iterations[i] += 1
            expanded = int(counts[position])
            hubs_expanded[i] += expanded
            requested[i] += expanded
            next_hubs, next_masses = _EMPTY_I64, _EMPTY_F64
            if expanded:
                end = int(segment_ends[position])
                segment = border_cols[end - int(per_query_border[position]):end]
                if segment.size:
                    # First-touch order = the scalar dict's insertion order.
                    _, first = np.unique(segment, return_index=True)
                    next_hubs = segment[np.sort(first)]
                    base = i * num_nodes
                    next_masses = accumulator[base + next_hubs]
                    accumulator[base + next_hubs] = 0.0
            frontiers[i] = (next_hubs, next_masses)
            error_history[i].append(1.0 - float(estimates[i].sum()))
            if on_iteration is not None:
                on_iteration(i, state_of(i))

    return [
        (
            iterations[i],
            error_history[i],
            hubs_expanded[i],
            requested[i],
            seconds[i],
        )
        for i in range(batch)
    ]
