"""CSR rows of prime PPVs and the one incremental-round loop.

The online engine's inner loop (Algorithm 2, lines 8-12; Theorem 4)
splices the prime PPV of every frontier hub into the running estimate.
Done one hub at a time it is the paper's statement — the *scalar loop*,
kept as the oracle in ``tests/oracles.py``; done for a *batch* of
queries it is :func:`splice_rounds_exact`, the only round loop in
``src/``, run by both backends (through
:func:`repro.core.batch.splice_batch`) over one representation of the
hub payloads:

* :class:`SpliceBlock` holds prime PPVs as two append-only CSR matrices —
  score rows and border rows (columns are hub *node ids*) — whose arrays
  are :class:`HubRows` batches' own: the stored records' concatenated
  arrays, decoded once by :func:`repro.storage.ppv_store.decode_records`,
  or :meth:`HubRows.pack` of prime PPVs.  A hub's prime PPV has that one
  layout in memory; the trivial-tour correction is applied by the round,
  not stored.  The batch a block is made with is held without a copy
  (a :class:`~repro.core.index.PPVIndex` *is* such a block, holding
  every hub — memory is "disk with everything resident"); a PPV store's
  block starts empty, lives as long as the store, copies each fetched
  record in once (:meth:`SpliceBlock.add_rows`) and drops the hubs its
  pool evicted (:meth:`SpliceBlock.drop`).
* Each round of a batch is one call of the compiled
  ``repro_splice_round`` (:mod:`repro.native`) over state allocated once
  per batch: the delta gate, the score scatter and the first-touch
  border accumulation of every gated ``(query, hub)`` pair, each query's
  counters and its ``1 - sum(estimate)``.  The per-element accumulation
  order is exactly the scalar loop's, so scores, error histories and
  frontiers are **bitwise equal** to it on every backend
  (``tests/test_native_kernels.py``).
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro import native
from repro.core.prime import PrimePPV
from repro.core.query import QueryState, StoppingCondition

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


_BYTES = ctypes.c_char * 0


def _address(array: np.ndarray) -> int:
    """The address of a writable C-contiguous array's first byte (a
    quarter of what ``array.ctypes.data`` costs per call)."""
    return ctypes.addressof(_BYTES.from_buffer(array))


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[start, start + length)`` laid end to end."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


@dataclass(frozen=True)
class HubRows:
    """A batch of hub prime PPVs as CSR rows: what a :class:`SpliceBlock`
    holds.

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


def _room(array: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``array`` if it has ``needed`` elements, else a new buffer of at
    least twice its size holding its first ``used``."""
    if needed <= array.size:
        return array
    grown = np.empty(max(needed, 2 * array.size), array.dtype)
    grown[:used] = array[:used]
    return grown


class _GrowableRows:
    """Append-only CSR rows, ``indptr`` the cumulative sum of the row
    lengths.  The first rows' arrays are held as they are (``np.require``
    copies one only if it is not int64 / float64, aligned, C-contiguous
    and writable); they are full, so the first :meth:`extend` moves to
    amortised-doubling buffers (the indptr's too) and no caller's array
    is ever written.  :meth:`csr` returns zero-copy views."""

    __slots__ = ("_indices", "_data", "_nnz", "_indptr", "_rows")

    def __init__(self, columns, values, lengths) -> None:
        self._indices = np.require(columns, np.int64, "CAW")
        self._data = np.require(values, np.float64, "CAW")
        self._nnz = self._indices.size
        self._rows = len(lengths)
        self._indptr = np.zeros(self._rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._indptr[1:])

    def extend(self, columns, values, lengths) -> None:
        """Append rows of ``lengths`` elements, copying their ``columns``
        and ``values`` (laid end to end) in."""
        start, end = self._nnz, self._nnz + len(columns)
        first, last = self._rows + 1, self._rows + 1 + len(lengths)
        self._indices = _room(self._indices, start, end)
        self._data = _room(self._data, start, end)
        self._indptr = _room(self._indptr, first, last)
        self._indices[start:end] = columns
        self._data[start:end] = values
        np.cumsum(lengths, out=self._indptr[first:last])
        self._indptr[first:last] += start
        self._nnz, self._rows = end, last - 1

    def gathered(self, rows: np.ndarray) -> "_GrowableRows":
        """New rows holding ``rows`` of these, in that order: one gather
        per array."""
        indptr, indices, data = self.csr()
        lengths = indptr[rows + 1] - indptr[rows]
        at = concat_ranges(indptr[rows], lengths)
        return _GrowableRows(indices[at], data[at], lengths)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` views of the rows added so far."""
        rows, nnz = self._rows + 1, self._nnz
        return self._indptr[:rows], self._indices[:nnz], self._data[:nnz]


class SpliceBlock:
    """CSR block of prime PPVs: what the splice rounds read.

    Its rows are :class:`HubRows` batches as they are: per hub a score
    row ``(nodes, scores)`` and a border row ``(border_hubs,
    border_masses)`` (columns are hub *node ids*; the border targets need
    not be in the block yet).  The batch given at construction — every
    hub of a :class:`~repro.core.index.PPVIndex`, or none for a PPV
    store's block — is held without a copy; :meth:`add_rows` copies later
    batches in (a store's records arrive as rounds first need them) and
    :meth:`drop` forgets hubs (the ones a store's pool evicted).

    The splice round reads the rows straight from the CSR, applies the
    trivial-tour correction itself (``kernels.c::splice_scores``), and
    checks a hub's rows for columns outside ``[0, num_nodes)`` the first
    time it splices them (``_checked``, one flag per node).
    """

    def __init__(self, alpha: float, num_nodes: int, rows: HubRows) -> None:
        self.alpha = alpha
        self.num_nodes = num_nodes
        self._row_lookup = np.full(num_nodes, -1, dtype=np.int64)
        self._checked = np.zeros(num_nodes, dtype=np.uint8)
        # Rows filed (dropped ones too), rows live, elements dropped.
        self._num_rows = self._live = self._dead = 0
        self._file(rows)
        self._scores = _GrowableRows(rows.nodes, rows.scores, rows.entries)
        self._borders = _GrowableRows(
            rows.border_hubs, rows.border_masses, rows.borders
        )

    @property
    def num_rows(self) -> int:
        """Number of hubs with a row."""
        return self._live

    @property
    def hubs(self) -> np.ndarray:
        """Sorted ids of the hubs with a row."""
        return np.flatnonzero(self._row_lookup >= 0)

    def _file(self, rows: HubRows) -> None:
        """Give the batch's hubs the next rows, in batch order, after
        refusing (``ValueError``) a batch whose arrays disagree with its
        counts — the kernel reads them by address — and, naming the hub,
        one outside ``[0, num_nodes)``, held or named twice."""
        hubs = np.asarray(rows.hubs, dtype=np.int64)
        for counts, *arrays in (
            (rows.entries, rows.nodes, rows.scores),
            (rows.borders, rows.border_hubs, rows.border_masses),
        ):
            if len(counts) != hubs.size or np.any(np.less(counts, 0)) or any(
                np.shape(array) != (np.sum(counts),) for array in arrays
            ):
                raise ValueError("a row batch's arrays disagree with its counts")
        outside = (hubs < 0) | (hubs >= self.num_nodes)
        if outside.any():
            raise ValueError(
                f"hub {hubs[outside][0]} is outside [0, {self.num_nodes})"
            )
        held = self._row_lookup[hubs] >= 0
        if held.any():
            raise ValueError(f"hub {hubs[held][0]} already has a row")
        numbers = np.arange(self._num_rows, self._num_rows + hubs.size)
        self._row_lookup[hubs] = numbers
        repeated = self._row_lookup[hubs] != numbers
        if repeated.any():
            self._row_lookup[hubs] = -1
            raise ValueError(f"hub {hubs[repeated][0]} is named twice in a batch")
        self._num_rows += hubs.size
        self._live += hubs.size

    def add_rows(self, rows: HubRows) -> None:
        """Append a batch of new hubs as rows, in batch order: one copy
        per array.  A hub the block holds, or one the batch names twice,
        is refused (a ``ValueError`` naming it)."""
        self._file(rows)
        self._scores.extend(rows.nodes, rows.scores, rows.entries)
        self._borders.extend(rows.border_hubs, rows.border_masses, rows.borders)

    def drop(self, hubs: np.ndarray) -> None:
        """Forget the rows of ``hubs`` (distinct, each with a row): they
        read as missing, and a row added for one later is checked again.
        Live rows are compacted (one gather per array) once dropped
        elements outnumber them, so drop only between batches."""
        rows = self.rows_of(hubs)
        self._row_lookup[hubs] = -1
        self._checked[hubs] = 0
        self._live -= hubs.size
        for matrix in (self._scores, self._borders):
            indptr = matrix.csr()[0]
            self._dead += int((indptr[rows + 1] - indptr[rows]).sum())
        if 2 * self._dead > self._scores._nnz + self._borders._nnz:
            held = self.hubs  # their rows, renumbered in hub order
            rows = self._row_lookup[held]
            self._scores = self._scores.gathered(rows)
            self._borders = self._borders.gathered(rows)
            self._row_lookup[held] = np.arange(held.size)
            self._num_rows, self._dead = held.size, 0

    def prime_of(self, hub: int) -> tuple[np.ndarray, ...]:
        """A held hub's prime PPV read back from its rows: ``(nodes,
        scores, border hubs, border masses)`` read-only views."""
        row = int(self.rows_of(np.array([hub], dtype=np.int64))[0])
        views = tuple(
            array[indptr[row]:indptr[row + 1]]
            for indptr, *arrays in (self._scores.csr(), self._borders.csr())
            for array in arrays
        )
        for view in views:
            view.flags.writeable = False
        return views

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


class _BatchRounds:
    """One batch's state for ``kernels.c::repro_splice_round``, allocated
    once per batch and read in place by every round's one C call.

    The frontiers are stacked in two buffers, the rows of ``hubs`` /
    ``masses``, that the kernel swaps each round: query ``i``'s is
    ``[starts[i], starts[i] + counts[i])`` of row ``current``.
    ``errors[r, i]`` is query ``i``'s L1 error after iteration ``r``;
    ``iterations``, ``hubs_expanded`` and ``work_units`` are per query.
    Every array the kernel sees is created here with its dtype and
    layout and held for as long as the struct points at it.
    """

    def __init__(
        self,
        estimates: np.ndarray,
        frontiers: "list[tuple[np.ndarray, np.ndarray]]",
        alpha: float,
        delta: float,
        block: SpliceBlock,
    ) -> None:
        if estimates.dtype != np.float64 or not estimates.flags.c_contiguous:
            raise ValueError("estimates must be C-contiguous float64")
        batch, num_nodes = estimates.shape
        self._round = native.load().repro_splice_round
        self.estimates, self.block = estimates, block
        # One int64 table, a row per counter, passed as one address.
        self.table = table = np.zeros((7, batch), dtype=np.int64)
        (
            self.starts, self.counts, _, _,
            self.iterations, self.hubs_expanded, self.work_units,
        ) = table
        self.counts[:] = [hubs.size for hubs, _ in frontiers]
        self.starts[:] = np.cumsum(self.counts) - self.counts
        total = int(self.counts.sum())
        # A next frontier holds each border hub once; on a block whose
        # border hubs all have rows (every index's block) that is at
        # most num_rows per query, so the buffers never grow.
        capacity = max(1024, 4 * total, batch * block.num_rows)
        self.hubs = np.empty((2, capacity), dtype=np.int64)
        self.masses = np.empty((2, capacity))
        self.current = 0
        np.concatenate(
            [_EMPTY_I64, *(h for h, _ in frontiers)], out=self.hubs[0, :total]
        )
        np.concatenate(
            [_EMPTY_F64, *(m for _, m in frontiers)], out=self.masses[0, :total]
        )
        self.errors = np.empty((8, batch))
        # np.sum's bits per row: numpy reduces each contiguous row whole.
        self.errors[0] = 1.0 - estimates.sum(axis=1)
        # slot (zero between calls), then absent.
        self.scratch = np.zeros((2, num_nodes), dtype=np.int64)
        self.rows = _EMPTY_I64
        table_at, row_bytes = _address(table), table.strides[0]
        scratch_at = _address(self.scratch)
        self.state = native.SpliceRound(
            num_nodes=num_nodes, queries=batch, alpha=alpha, delta=delta,
            estimates=_address(estimates), errors=_address(self.errors),
            **{
                name: table_at + row * row_bytes
                for row, name in enumerate((
                    "starts", "counts", "next_starts", "next_counts",
                    "iterations", "hubs_expanded", "work_units",
                ))
            },
            slot=scratch_at, absent=scratch_at + self.scratch.strides[0],
        )
        self._point_at_buffers()
        self._point_at_block()
        self._ref = ctypes.byref(self.state)

    def _point_at_buffers(self) -> None:
        state, current = self.state, self.current
        hubs_at, masses_at = _address(self.hubs), _address(self.masses)
        row_bytes = self.hubs.strides[0]
        state.hubs = hubs_at + current * row_bytes
        state.masses = masses_at + current * row_bytes
        state.next_hubs = hubs_at + (1 - current) * row_bytes
        state.next_masses = masses_at + (1 - current) * row_bytes
        state.capacity = self.hubs.shape[1]

    def _point_at_block(self) -> None:
        """Point the struct at the block's arrays (again after it grew:
        an append may move them)."""
        block, state = self.block, self.state
        (
            state.row_lookup, state.checked,
            state.score_indptr, state.score_indices, state.score_data,
            state.border_indptr, state.border_indices, state.border_data,
        ) = map(
            _address,
            (
                block._row_lookup, block._checked,
                *block._scores.csr(), *block._borders.csr(),
            ),
        )

    def run(self, rows: np.ndarray, ensure: Callable[[np.ndarray], None]) -> None:
        """One round of the queries ``rows`` (int64, ascending), all at
        the same iteration: ``ensure`` makes the hubs they need resident,
        then the kernel runs the round."""
        state = self.state
        if rows is not self.rows:
            self.rows = rows
            state.rows, state.runnable = _address(rows), rows.size
        if self.errors.shape[0] <= self.iterations[rows[0]] + 1:
            self.errors = np.concatenate((self.errors, np.empty_like(self.errors)))
            state.errors = _address(self.errors)
        while status := self._round(self._ref):
            if status > 0:  # hubs without a row: one stacked fetch
                absent = self.scratch[1, :status].copy()
                ensure(absent)
                still = self.block.missing(absent)
                if still.size:
                    raise KeyError(f"hubs {still.tolist()} are not in the block")
                self._point_at_block()
            elif status == -1:  # the next frontiers outgrew the buffers
                live, capacity = self.current, self.hubs.shape[1]
                hubs, masses = self.hubs, self.masses
                self.hubs = np.empty((2, 2 * capacity), dtype=np.int64)
                self.masses = np.empty((2, 2 * capacity))
                self.hubs[live, :capacity] = hubs[live]
                self.masses[live, :capacity] = masses[live]
                self._point_at_buffers()
            elif status == -2:
                raise ValueError(
                    f"the prime PPV of hub {state.refused} names a node "
                    f"outside [0, {state.num_nodes})"
                )
            else:
                raise ValueError(
                    f"frontier hub {state.refused} is outside [0, {state.num_nodes})"
                )
        self.current = 1 - self.current

    def frontiers(self, queries: np.ndarray) -> "list[tuple[np.ndarray, np.ndarray]]":
        """The current frontiers of ``queries``: views into one copy of
        the current buffer."""
        hubs = self.hubs[self.current].copy()
        masses = self.masses[self.current].copy()
        starts = self.starts[queries]
        return [
            (hubs[start:end], masses[start:end])
            for start, end in zip(
                starts.tolist(), (starts + self.counts[queries]).tolist()
            )
        ]


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
    module docstring): each round is one call of the compiled
    ``repro_splice_round`` over every in-flight query.  It applies the
    delta gate to each ``(query, hub)`` pair in frontier order, splices
    the gated hubs' score and border rows in (query, frontier position,
    row element) order — the exact operation order of the scalar loop,
    so scores, error histories and next frontiers are bit-for-bit
    identical to running it per query (queries never share accumulation
    targets) — and writes each query's ``1 - sum(estimate)`` with
    numpy's own pairwise sum over the row.  Python keeps the loop over
    rounds: the stop test, the retirement of finished queries and
    ``on_iteration``.

    Parameters
    ----------
    estimates:
        ``(B, n)`` C-contiguous float64, mutated in place; row ``i`` is
        query ``i``'s running estimate (iteration 0 already applied).
    frontiers:
        Per query, ``(hub ids int64, arrival masses float64)`` in the
        scalar dict's iteration order; each entry is replaced by the
        query's last frontier when it retires (the arrays themselves are
        never written).
    stop / alpha / delta / max_iterations:
        As in :class:`repro.core.batch.FastPPV`; ``stop`` is evaluated
        per query per round and must be stateless to mean the same thing
        it does for a query served alone.  A condition exposing a
        vectorised ``should_stop_many`` (every built-in one) is evaluated
        for every in-flight query of the round in one pass, without a
        :class:`~repro.core.query.QueryState`; the decisions are
        identical by that method's contract.
    block / ensure:
        The resident-row block and a callable that must make every hub
        id array passed to it resident (``ensure(missing)`` — fetch and
        :meth:`SpliceBlock.add_rows`); it is reached only when a round
        needs a hub the block lacks, and the round is then run again.
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
    batch = estimates.shape[0]
    rounds = _BatchRounds(estimates, frontiers, alpha, delta, block)
    seconds = np.zeros(batch)

    def state_of(i: int) -> QueryState:
        iteration = int(rounds.iterations[i])
        return QueryState(
            iteration=iteration,
            l1_error=float(rounds.errors[iteration, i]),
            elapsed_seconds=time.perf_counter() - started,
            frontier_size=int(rounds.counts[i]),
            scores=estimates[i],
        )

    if on_iteration is not None:
        for i in range(batch):
            on_iteration(i, state_of(i))

    stop_many = getattr(stop, "should_stop_many", None)
    live = np.arange(batch, dtype=np.int64)
    iteration = 0
    while live.size:
        # Every live query has run `iteration` rounds.
        done = (rounds.counts[live] == 0) | (iteration >= max_iterations)
        if stop_many is not None:
            done |= stop_many(
                rounds.iterations[live],
                rounds.errors[iteration, live],
                estimates if live.size == batch else estimates[live],
            )
        else:
            for position in np.flatnonzero(~done).tolist():
                done[position] = stop.should_stop(state_of(int(live[position])))
        if done.any():
            retired = live[done]
            seconds[retired] = time.perf_counter() - started
            for i, frontier in zip(retired.tolist(), rounds.frontiers(retired)):
                frontiers[i] = frontier
            live = live[~done]
            if not live.size:
                break
        rounds.run(live, ensure)
        iteration += 1
        if on_iteration is not None:
            for i in live.tolist():
                on_iteration(i, state_of(i))

    return [
        (iterations, rounds.errors[: iterations + 1, i].tolist(), expanded, work, spent)
        for i, (iterations, expanded, work, spent) in enumerate(
            zip(
                rounds.iterations.tolist(),
                rounds.hubs_expanded.tolist(),
                rounds.work_units.tolist(),
                seconds.tolist(),
            )
        )
    ]
