"""CSR lowering of prime PPVs and the one incremental-round loop.

The online engine's inner loop (Algorithm 2, lines 8-12; Theorem 4)
splices the prime PPV of every frontier hub into the running estimate.
Done one hub at a time it is the paper's statement — the *scalar loop*,
kept as the oracle in ``tests/oracles.py``; done for a *batch* of
queries it is :func:`splice_rounds_exact`, the only round loop in
``src/``, run by both backends over one representation of the hub
payloads:

* :class:`SpliceBlock` holds prime PPVs as two append-only CSR matrices —
  score rows (the trivial-tour correction is a trailing ``(hub, -alpha)``
  element, see :meth:`SpliceBlock.add_rows`) and border rows (columns
  are hub *node ids*).  Rows arrive as a :class:`HubRows` batch — the
  stored records' own concatenated arrays, decoded once by
  :func:`repro.storage.ppv_store.decode_records` — and are lowered in one
  vectorised step per batch (:meth:`SpliceBlock.add_rows`, the one path
  into a block).  The disk engine grows one block per query batch as
  hub records are fetched; the in-memory engine uses
  :func:`resident_block`, the block holding every hub of a
  :class:`~repro.core.index.PPVIndex`, packed once and cached on the
  index — memory is "disk with everything resident".
* Each round is two products over the stacked, delta-gated
  ``(query, hub)`` pairs — :meth:`SpliceBlock.score_product` and
  :meth:`SpliceBlock.border_product` — whose per-element accumulation
  order is exactly the scalar loop's, so scores, error histories and
  frontiers are **bitwise equal** to it on every backend.  Both run in the
  compiled kernels of :mod:`repro.native`
  (``tests/test_native_kernels.py``).

Indexes are treated as immutable once queried —
:func:`repro.core.dynamic.update_index` returns a *new* index, so the
cached block can never go stale through the supported update path.  Call
:func:`invalidate_splice_cache` after mutating ``index.entries`` in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro import native
from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV
from repro.core.query import QueryState, StoppingCondition

_CACHE_ATTR = "_splice_block"

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[start, start + length)`` laid end to end."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


@dataclass(frozen=True)
class HubRows:
    """A batch of hub prime PPVs as CSR rows: what a :class:`SpliceBlock`
    appends.

    Row ``i`` is hub ``hubs[i]`` with ``entries[i]`` score entries and
    ``borders[i]`` border entries; each of the four value arrays holds
    every row's elements laid end to end in row order.  A batch of stored
    records decodes straight into this shape
    (:func:`repro.storage.ppv_store.decode_records`); :meth:`pack` builds
    one from :class:`~repro.core.prime.PrimePPV` objects.
    """

    hubs: np.ndarray
    entries: np.ndarray
    borders: np.ndarray
    nodes: np.ndarray
    scores: np.ndarray
    border_hubs: np.ndarray
    border_masses: np.ndarray

    @classmethod
    def pack(cls, entries: Iterable[PrimePPV]) -> "HubRows":
        """The rows of ``entries``, in the given order."""
        entries = list(entries)

        def joined(name: str, empty: np.ndarray) -> np.ndarray:
            arrays = [getattr(entry, name) for entry in entries]
            return np.concatenate([empty, *arrays]).astype(empty.dtype, copy=False)

        return cls(
            hubs=np.array([entry.source for entry in entries], dtype=np.int64),
            entries=np.array([entry.nodes.size for entry in entries], dtype=np.int64),
            borders=np.array(
                [entry.border_hubs.size for entry in entries], dtype=np.int64
            ),
            nodes=joined("nodes", _EMPTY_I64),
            scores=joined("scores", _EMPTY_F64),
            border_hubs=joined("border_hubs", _EMPTY_I64),
            border_masses=joined("border_masses", _EMPTY_F64),
        )

    def __len__(self) -> int:
        return self.hubs.size

    def primes(self) -> list[PrimePPV]:
        """One :class:`~repro.core.prime.PrimePPV` per row — views into
        this batch's arrays.  For callers that want the per-hub object
        (``get``, ``load_index``); the query path appends the batch to a
        block instead."""
        cuts, border_cuts = np.cumsum(self.entries)[:-1], np.cumsum(self.borders)[:-1]
        return [
            PrimePPV(hub, nodes, scores, border_hubs, border_masses)
            for hub, nodes, scores, border_hubs, border_masses in zip(
                self.hubs.tolist(),
                np.split(self.nodes, cuts),
                np.split(self.scores, cuts),
                np.split(self.border_hubs, border_cuts),
                np.split(self.border_masses, border_cuts),
            )
        ]


class _GrowableRows:
    """Append-only CSR row storage over amortised-doubling buffers.

    A per-batch :class:`SpliceBlock` grows every scheduling wave;
    rebuilding the concatenation from per-row arrays would copy the whole
    block per round (worst-case quadratic in total fetched payload).
    Doubling buffers make each :meth:`extend` amortised O(appended
    elements), and :meth:`csr` returns zero-copy views.  ``capacity`` is
    the element count the buffers start with: a block whose rows are
    known up front asks for exactly their total and never doubles.
    """

    __slots__ = ("_indices", "_data", "_nnz", "_ends", "_indptr")

    def __init__(self, capacity: int) -> None:
        self._indices = np.empty(capacity, dtype=np.int64)
        self._data = np.empty(capacity, dtype=np.float64)
        self._nnz = 0
        self._ends: list[int] = [0]
        self._indptr: np.ndarray | None = None

    def extend(self, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append rows of ``lengths`` elements; returns writable views of
        their ``(columns, values)``, end to end, for the caller to fill."""
        start = self._nnz
        ends = start + np.cumsum(lengths)
        end = int(ends[-1]) if ends.size else start
        if end > self._indices.size:
            capacity = max(end, 2 * self._indices.size)
            indices = np.empty(capacity, dtype=np.int64)
            indices[:start] = self._indices[:start]
            data = np.empty(capacity, dtype=np.float64)
            data[:start] = self._data[:start]
            self._indices, self._data = indices, data
        self._nnz = end
        self._ends.extend(ends.tolist())
        self._indptr = None
        return self._indices[start:end], self._data[start:end]

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` views of the rows added so far."""
        if self._indptr is None:
            self._indptr = np.asarray(self._ends, dtype=np.int64)
        return self._indptr, self._indices[: self._nnz], self._data[: self._nnz]


class SpliceBlock:
    """Append-only CSR block of prime PPVs: what the splice rounds read.

    :meth:`add_rows` appends a :class:`HubRows` batch: per hub a score
    row and a border row (columns are hub *node ids*; the border targets
    need not be in the block yet).  The disk engine cannot lower the
    whole index up front — hub records arrive from the
    :class:`~repro.storage.ppv_store.DiskPPVStore` wave by wave — so its
    per-batch block starts empty and grows one batch at a time; a block
    given its ``entries`` at construction (:func:`resident_block`) packs
    them into one batch, is sized for exactly those and carries no
    growth slack.

    :meth:`score_product` and :meth:`border_product` are the two products
    of one incremental round over any sequence of block rows, read
    straight from the CSR.
    """

    def __init__(
        self, alpha: float, num_nodes: int, entries: Iterable[PrimePPV] = ()
    ) -> None:
        self.alpha = alpha
        self.num_nodes = num_nodes
        self._row_lookup = np.full(num_nodes, -1, dtype=np.int64)
        self._num_rows = 0
        rows = HubRows.pack(entries)
        self._scores = _GrowableRows(rows.nodes.size + len(rows) or 1024)
        self._borders = _GrowableRows(rows.border_hubs.size or 1024)
        self.add_rows(rows)

    @property
    def num_rows(self) -> int:
        """Number of hub rows appended so far."""
        return self._num_rows

    def add_rows(self, rows: HubRows) -> None:
        """Append a batch of hubs as new rows, in batch order, with one
        extend per matrix.  A hub the block already holds is skipped, and
        so is a repeat within the batch (the first occurrence wins).

        A score row is the hub's ``(nodes, scores)`` followed by the
        trivial-tour correction ``(hub, -alpha)``.  The scalar loop
        splices an arrival mass ``m`` as two operations:
        ``estimate[entry.nodes] += m * entry.scores`` followed by
        ``estimate[hub] -= alpha * m``; a *sequential* scatter-add over the
        row reproduces them in their original order: ``m * (-alpha)`` is
        bitwise ``-(alpha * m)`` and IEEE addition of a negated value is
        bitwise subtraction, hence bit-for-bit equality.
        """
        if not len(rows):
            return
        hubs = rows.hubs
        fresh = self._row_lookup[hubs] < 0
        _, first = np.unique(hubs, return_index=True)
        if first.size < hubs.size:
            once = np.zeros(hubs.size, dtype=bool)
            once[first] = True
            fresh &= once
        if not fresh.all():
            kept = np.repeat(fresh, rows.entries)
            border_kept = np.repeat(fresh, rows.borders)
            rows = HubRows(
                hubs[fresh], rows.entries[fresh], rows.borders[fresh],
                rows.nodes[kept], rows.scores[kept],
                rows.border_hubs[border_kept], rows.border_masses[border_kept],
            )
            hubs = rows.hubs
        count = hubs.size
        if count == 0:
            return
        self._row_lookup[hubs] = np.arange(self._num_rows, self._num_rows + count)
        self._num_rows += count
        columns, values = self._scores.extend(rows.entries + 1)
        # Row i's elements sit after i earlier corrections.
        body = np.arange(rows.nodes.size) + np.repeat(np.arange(count), rows.entries)
        tails = np.cumsum(rows.entries + 1) - 1
        columns[body] = rows.nodes
        columns[tails] = hubs
        values[body] = rows.scores
        values[tails] = -self.alpha
        columns, values = self._borders.extend(rows.borders)
        columns[:] = rows.border_hubs
        values[:] = rows.border_masses

    def prime_of(self, hub: int) -> tuple[np.ndarray, ...]:
        """A held hub's prime PPV read back from its rows: ``(nodes,
        scores, border hubs, border masses)`` views — the score row
        without its trailing correction, and the border row."""
        row = int(self.rows_of(np.array([hub], dtype=np.int64))[0])
        indptr, indices, data = self._scores.csr()
        start, end = indptr[row], indptr[row + 1] - 1
        border_indptr, border_indices, border_data = self._borders.csr()
        border_start, border_end = border_indptr[row], border_indptr[row + 1]
        return (
            indices[start:end],
            data[start:end],
            border_indices[border_start:border_end],
            border_data[border_start:border_end],
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

    def _refuse(self, row: int) -> None:
        hub = int(np.nonzero(self._row_lookup == row)[0][0])
        raise ValueError(
            f"the prime PPV of hub {hub} names a node outside "
            f"[0, {self.num_nodes})"
        )

    def work_of(self, rows: np.ndarray) -> np.ndarray:
        """Per row, the work units of one splice: the prime PPV's
        ``nodes.size + border_hubs.size`` (the score row's trailing
        correction element is not an index entry)."""
        scores, borders = self._scores.csr()[0], self._borders.csr()[0]
        return (
            scores[rows + 1] - scores[rows] - 1
            + borders[rows + 1] - borders[rows]
        )

    def score_product(
        self,
        rows: np.ndarray,
        masses: np.ndarray,
        offsets: np.ndarray,
        dest: np.ndarray,
    ) -> None:
        """``dest[offsets[p] + column] += masses[p] * value`` over score
        row ``rows[p]``, in (pair, row element) order — the scalar loop's
        ``estimate[nodes] += m * scores; estimate[hub] -= alpha * m`` per
        pair.  Raises :class:`ValueError`, writing nothing past it, on a
        column outside ``[0, num_nodes)``."""
        bad = native.load().repro_splice_scores(
            self.num_nodes, rows.size, rows, masses, offsets,
            *self._scores.csr(), dest,
        )
        if bad >= 0:
            self._refuse(bad)

    def border_product(
        self, rows: np.ndarray, masses: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next frontiers of ``counts.size`` queries whose pairs
        ``(rows[p], masses[p])`` are stacked query by query, ``counts[q]``
        each: per query ``next[hub] = next.get(hub, 0.0) + masses[p] *
        value`` over border row ``rows[p]`` in (pair, row element) order,
        hubs in *first-touch* order — the scalar loop's dict, insertion
        order included.  Returns ``(hubs, arrival masses, per-query entry
        counts)``, the first two stacked query by query."""
        indptr, indices, data = self._borders.csr()
        room = int((indptr[rows + 1] - indptr[rows]).sum())
        next_hubs = np.empty(room, dtype=np.int64)
        next_masses = np.empty(room, dtype=np.float64)
        next_counts = np.empty(counts.size, dtype=np.int64)
        written = native.load().repro_splice_borders(
            self.num_nodes, counts.size, counts, rows, masses,
            indptr, indices, data,
            np.zeros(self.num_nodes, dtype=np.int64),
            next_hubs, next_masses, next_counts,
        )
        if written < 0:
            self._refuse(-written - 1)
        return next_hubs[:written], next_masses[:written], next_counts


def resident_block(index: PPVIndex) -> SpliceBlock:
    """The :class:`SpliceBlock` holding every hub of ``index``, built on
    first use and cached on the index (see the module docstring).

    Raises
    ------
    ValueError
        If the index has a hub in its mask with no stored entry, or an
        entry whose border hubs are not themselves indexed — either would
        make a batch splice silently diverge from the scalar loop.
    """
    block = getattr(index, _CACHE_ATTR, None)
    if block is not None:
        return block
    hubs = sorted(index.entries)
    if not np.array_equal(hubs, np.nonzero(index.hub_mask)[0]):
        raise ValueError(
            "index entries do not cover the hub mask; the batch engine "
            "needs a prime PPV stored for every hub"
        )
    for hub in hubs:
        if not index.hub_mask[index.entries[hub].border_hubs].all():
            raise ValueError(f"hub {hub} has border hubs outside the index")
    block = SpliceBlock(
        index.alpha, index.hub_mask.size, (index.entries[hub] for hub in hubs)
    )
    setattr(index, _CACHE_ATTR, block)
    return block


def invalidate_splice_cache(index: PPVIndex) -> None:
    """Drop the cached block (call after mutating ``index.entries``)."""
    if hasattr(index, _CACHE_ATTR):
        delattr(index, _CACHE_ATTR)


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

    The batch twin of the per-hub dict loop (the scalar loop of the
    module docstring): each round stacks
    the delta-gated ``(query, hub)`` pairs of every in-flight query and
    applies :meth:`SpliceBlock.score_product` and
    :meth:`SpliceBlock.border_product` to them, whose element order is
    (query, frontier position, row element) — the exact operation order
    of the scalar loop, so scores, error histories and next frontiers
    are bit-for-bit identical to running it per query (queries never
    share accumulation targets).

    Parameters
    ----------
    estimates:
        ``(B, n)`` C-contiguous float64, mutated in place; row ``i`` is
        query ``i``'s running estimate (iteration 0 already applied).
    frontiers:
        Per query, ``(hub ids int64, arrival masses float64)`` in the
        scalar dict's iteration order; consumed and replaced (the arrays
        themselves are never written).
    stop / alpha / delta / max_iterations:
        As in :class:`repro.core.batch.FastPPV`; ``stop`` is evaluated
        per query per round and must be stateless to mean the same thing
        it does for a query served alone.  A condition exposing a vectorised
        ``should_stop_many`` (the certified top-k rule) is evaluated for
        every in-flight query of the round in one pass; the decisions
        are identical by that method's contract.
    block / ensure:
        The resident-row block and a callable that must make every hub
        id array passed to it resident (``ensure(missing)`` — fetch and
        :meth:`SpliceBlock.add_rows`); it is reached only when a round
        needs a hub the block lacks.
    on_iteration:
        Optional ``(query position, QueryState)`` callback, invoked once
        per executed iteration per query, iteration 0 included.

    Returns
    -------
    Per query: ``(iterations, error_history, hubs_expanded, work_units,
    seconds)`` where ``hubs_expanded`` counts the gated expansions — one
    scalar ``fetch`` call each — ``work_units`` the index entries they
    touched, and ``seconds`` is the time from ``started`` until the
    query retired.
    """
    batch, num_nodes = estimates.shape
    flat_estimates = estimates.reshape(-1)
    iterations = np.zeros(batch, dtype=np.int64)
    hubs_expanded = [0] * batch
    work_units = [0] * batch
    seconds = [0.0] * batch
    error_history = [
        [1.0 - float(estimates[i].sum())] for i in range(batch)
    ]

    def state_of(i: int) -> QueryState:
        return QueryState(
            iteration=int(iterations[i]),
            l1_error=error_history[i][-1],
            elapsed_seconds=time.perf_counter() - started,
            frontier_size=frontiers[i][0].size,
            scores=estimates[i],
        )

    if on_iteration is not None:
        for i in range(batch):
            on_iteration(i, state_of(i))

    stop_many = getattr(stop, "should_stop_many", None)
    active = list(range(batch))
    while active:
        if stop_many is not None:
            stopping = stop_many(
                iterations[active],
                np.array([error_history[i][-1] for i in active]),
                estimates[active],
            )
        runnable = []
        for position, i in enumerate(active):
            if (
                frontiers[i][0].size == 0
                or iterations[i] >= max_iterations
                or (
                    stopping[position]
                    if stop_many is not None
                    else stop.should_stop(state_of(i))
                )
            ):
                seconds[i] = time.perf_counter() - started
            else:
                runnable.append(i)
        active = runnable
        if not runnable:
            break

        # Per-(query, hub) delta gate (Algorithm 2, line 9): a frontier
        # hub is expanded only if its increment score alpha * mass
        # exceeds delta; gated entries also drop out of the next
        # frontier.  The survivors of the whole round are stacked.
        kept = []
        for i in runnable:
            hubs, masses = frontiers[i]
            keep = alpha * masses > delta
            kept.append((hubs[keep], masses[keep]))
        counts = np.array([hubs.size for hubs, _ in kept], dtype=np.int64)
        ends = np.cumsum(counts)
        next_hubs, next_masses = _EMPTY_I64, _EMPTY_F64
        next_counts, work = np.zeros_like(counts), np.zeros(1, dtype=np.int64)
        if ends[-1]:
            needed = np.concatenate([hubs for hubs, _ in kept])
            masses = np.concatenate([masses for _, masses in kept])
            absent = block.missing(needed)
            if absent.size:
                ensure(absent)  # one stacked fetch for the round
            rows = block.rows_of(needed)
            block.score_product(
                rows,
                masses,
                np.repeat(np.asarray(runnable, dtype=np.int64) * num_nodes, counts),
                flat_estimates,
            )
            next_hubs, next_masses, next_counts = block.border_product(
                rows, masses, counts
            )
            work = np.concatenate(([0], np.cumsum(block.work_of(rows))))
        cuts = np.cumsum(next_counts)[:-1]
        for i, end, expanded, hubs, masses in zip(
            runnable,
            ends.tolist(),
            counts.tolist(),
            np.split(next_hubs, cuts),
            np.split(next_masses, cuts),
        ):
            iterations[i] += 1
            hubs_expanded[i] += expanded
            work_units[i] += int(work[end] - work[end - expanded])
            frontiers[i] = (hubs, masses)
            error_history[i].append(1.0 - float(estimates[i].sum()))
            if on_iteration is not None:
                on_iteration(i, state_of(i))

    return list(
        zip(iterations.tolist(), error_history, hubs_expanded, work_units, seconds)
    )
