"""Batched online query engine: Algorithm 2 over many queries at once.

:class:`BatchFastPPV` executes the scalar engine of
:mod:`repro.core.query` for a whole batch of queries in lock-step rounds:

* **Iteration 0** runs one multi-source prime push
  (:func:`repro.core.prime.prime_push_many`) for all non-hub queries in
  the batch — same mass flow as the per-query push (reassociated sums
  only), with the per-round numpy dispatch cost paid once per batch
  instead of once per query.  Duplicate query ids share a single push.
* **Each incremental iteration** stacks the surviving frontiers into one
  CSR matrix and replaces the per-hub splice loop with two sparse matrix
  products against the cached :class:`~repro.core.splice.SpliceMatrix`
  (hub scores with the trivial-tour correction folded in, and hub border
  masses).  The per-(query, hub) ``delta`` gate of Algorithm 2 line 9 is
  applied entry-wise on the stacked frontier before the products.

Equivalence contract
--------------------
For any stopping condition that does not consult wall-clock time, results
are equivalent to running ``FastPPV.query`` per query: identical
``iterations``, ``hubs_expanded``, ``work_units`` and ``error_history``
length, with ``scores`` and error values matching to floating-point
round-off (~1e-14; the matrix products merely reassociate the same sums).
``seconds`` is per-query wall-clock *within the batch* (time from batch
start until the query finalised) and ``elapsed_seconds`` in
:class:`~repro.core.query.QueryState` is shared batch time — so
time-based stopping conditions remain usable but are inherently
non-deterministic, exactly as in the scalar engine.

Stopping conditions are shared across the batch and must therefore be
stateless (all built-in conditions are frozen dataclasses).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from repro.core.index import PPVIndex
from repro.core.query import (
    DEFAULT_DELTA,
    QueryResult,
    QueryState,
    StopAfterIterations,
    StopAtL1Error,
    StoppingCondition,
    _AnyOf,
)
from repro.core.prime import prime_push_many
from repro.core.splice import SpliceMatrix, splice_matrix
from repro.core.topk import StopWhenCertified, TopKResult, top_k_result

BatchCallback = Callable[[int, QueryState], None]
"""Per-query iteration callback: ``(position_in_batch, state)``.

Invoked once per executed iteration per query (iteration 0 included),
mirroring the scalar engine's ``on_iteration`` — the first argument is
the query's position in the ``queries`` sequence, so duplicate query ids
remain distinguishable.
"""

_CHUNK_ELEMENT_BUDGET = 1 << 22
"""Target elements (~32 MB of float64) per dense working matrix; the
default chunk size is derived from this so large graphs are processed in
memory-bounded slices rather than one ``batch x n`` allocation."""


def batch_safe(stop: StoppingCondition) -> bool:
    """Whether batching cannot change what ``stop`` means per query.

    Only the pure, stateless built-ins qualify
    (:class:`StopAfterIterations`, :class:`StopAtL1Error`,
    :class:`~repro.core.topk.StopWhenCertified` and ``any_of``
    combinations of them).  :class:`StopAfterTime` reads
    ``QueryState.elapsed_seconds`` — shared batch time here, a per-query
    budget in the scalar engine — and arbitrary user conditions may be
    stateful or time-reading in ways that cannot be introspected, so
    the serving adapters keep all of those on the scalar per-query
    path.  Pass such conditions to :meth:`BatchFastPPV.query_many`
    directly to opt in to shared-clock, interleaved-evaluation batch
    semantics.
    """
    if isinstance(stop, (StopAfterIterations, StopAtL1Error, StopWhenCertified)):
        return True
    if isinstance(stop, _AnyOf):
        return all(batch_safe(c) for c in stop.conditions)
    return False


class _Frontier:
    """One query's frontier: hub *rows* with arrival masses."""

    __slots__ = ("rows", "masses")

    def __init__(self, rows: np.ndarray, masses: np.ndarray) -> None:
        self.rows = rows
        self.masses = masses


class BatchFastPPV:
    """Batch FastPPV engine (see module docstring).

    Parameters mirror :class:`~repro.core.query.FastPPV`; in addition:

    Parameters
    ----------
    chunk_size:
        Maximum queries processed per dense working set; bounds the
        ``chunk_size x num_nodes`` estimate/push matrices.  Defaults to
        a graph-size-aware value keeping each dense matrix around
        ``_CHUNK_ELEMENT_BUDGET`` elements (at least 16 queries, at most
        512).
    """

    def __init__(
        self,
        graph,
        index: PPVIndex,
        delta: float = DEFAULT_DELTA,
        max_iterations: int = 64,
        online_epsilon: float | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if index.hub_mask.shape != (graph.num_nodes,):
            raise ValueError("index was built for a different graph size")
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        if chunk_size is None:
            chunk_size = max(
                16,
                min(512, _CHUNK_ELEMENT_BUDGET // max(1, graph.num_nodes)),
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.graph = graph
        self.index = index
        self.delta = delta
        self.max_iterations = max_iterations
        self.online_epsilon = (
            online_epsilon if online_epsilon is not None else index.epsilon
        )
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #

    @property
    def splice(self) -> SpliceMatrix:
        """The matrix lowering of the index.

        Resolved through :func:`repro.core.splice.splice_matrix` on every
        access (a cheap attribute lookup once built) so that
        :func:`repro.core.splice.invalidate_splice_cache` takes effect for
        engines that already exist.
        """
        return splice_matrix(self.index)

    def query(
        self,
        query: int,
        stop: StoppingCondition | None = None,
        on_iteration: Callable[[QueryState], None] | None = None,
    ) -> QueryResult:
        """Single query through the batch path (batch of one)."""
        callback: BatchCallback | None = None
        if on_iteration is not None:
            callback = lambda _position, state: on_iteration(state)
        return self.query_many([query], stop=stop, on_iteration=callback)[0]

    def query_many(
        self,
        queries: Sequence[int],
        stop: StoppingCondition | None = None,
        on_iteration: BatchCallback | None = None,
    ) -> list[QueryResult]:
        """Estimate the PPVs of ``queries``, preserving order.

        Parameters
        ----------
        queries:
            Query node ids (duplicates allowed; they share iteration-0
            work but produce independent results).
        stop:
            Shared stopping condition, evaluated per query after every
            iteration; defaults to the paper's ``StopAfterIterations(2)``.
            Must be stateless — the same object gates every query.
        on_iteration:
            Optional :data:`BatchCallback` invoked as
            ``on_iteration(position, state)`` after every executed
            iteration of every query (iteration 0 included).
        """
        ids = [int(q) for q in queries]
        for q in ids:
            if not 0 <= q < self.graph.num_nodes:
                raise ValueError(f"query node {q} out of range")
        if stop is None:
            stop = StopAfterIterations(2)

        results: list[QueryResult] = []
        for start in range(0, len(ids), self.chunk_size):
            results.extend(
                self._run_chunk(
                    ids[start : start + self.chunk_size],
                    start,
                    stop,
                    on_iteration,
                )
            )
        return results

    def query_top_k_many(
        self,
        queries: Sequence[int],
        k: int = 10,
        max_iterations: int = 32,
        on_iteration: BatchCallback | None = None,
    ) -> list[TopKResult]:
        """Certified top-k for a whole batch of queries, preserving order.

        Batch-retirement contract
        -------------------------
        The batch runs in lock-step rounds, but every query carries its
        *own* top-k certificate (the phi-gap rule of
        :mod:`repro.core.topk`): after each round the certificates of all
        in-flight queries are checked in one vectorised pass
        (:meth:`~repro.core.topk.StopWhenCertified.should_stop_many`),
        and a query **retires from the batch the moment its certificate
        fires** — it stops consuming rounds while uncertified neighbours
        keep iterating towards ``max_iterations``.  Each query therefore
        performs exactly as many incremental iterations as the scalar
        :func:`~repro.core.topk.query_top_k` would (same certified sets,
        same per-query iteration counts), with the per-round work batched
        into the two sparse matrix products of the chunk engine.

        Certificate soundness follows the scalar contract: build the
        engine with ``delta = 0`` for a formally sound certificate (a
        positive ``delta`` makes the Eq. 6 error slightly optimistic
        about pruned mass).

        Parameters
        ----------
        queries:
            Query node ids (duplicates allowed).
        k:
            Size of the wanted top set.
        max_iterations:
            Per-query certificate budget; queries whose certificate never
            fires within it are returned with ``certified=False``.
        on_iteration:
            Optional :data:`BatchCallback`, as in :meth:`query_many`.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        stop = StopWhenCertified(k=k, max_iterations=max_iterations)
        results = self.query_many(queries, stop=stop, on_iteration=on_iteration)
        return [top_k_result(result, k) for result in results]

    # ------------------------------------------------------------------ #

    def _run_chunk(
        self,
        ids: list[int],
        first: int,
        stop: StoppingCondition,
        on_iteration: BatchCallback | None,
    ) -> list[QueryResult]:
        """Run the batch rounds for one chunk, ``ids``, which starts at
        position ``first`` of the caller's batch."""
        graph, index, splice = self.graph, self.index, self.splice
        n = graph.num_nodes
        alpha = index.alpha
        delta = self.delta
        k = len(ids)
        started = time.perf_counter()

        # ---- iteration 0: one multi-source push for all non-hub queries.
        push_sources: list[int] = []
        push_row_of: dict[int, int] = {}
        for q in ids:
            if q not in index and q not in push_row_of:
                push_row_of[q] = len(push_sources)
                push_sources.append(q)
        push_scores, push_border, push_edges = prime_push_many(
            graph,
            np.asarray(push_sources, dtype=np.int64),
            index.hub_mask,
            alpha=alpha,
            epsilon=self.online_epsilon,
        )

        estimate = np.zeros((k, n))
        frontiers: list[_Frontier] = []
        error_history: list[list[float]] = []
        iterations = np.zeros(k, dtype=np.int64)
        hubs_expanded = np.zeros(k, dtype=np.int64)
        work_units = np.zeros(k, dtype=np.int64)
        seconds = np.zeros(k)

        for local, q in enumerate(ids):
            if q in index:
                entry = index.get(q)
                estimate[local, entry.nodes] = entry.scores
                rows = splice.rows_of(entry.border_hubs)
                masses = entry.border_masses.astype(np.float64, copy=True)
            else:
                row = push_row_of[q]
                estimate[local] = push_scores[row]
                border_nodes = np.nonzero(push_border[row])[0]
                rows = splice.rows_of(border_nodes)
                masses = push_border[row, border_nodes]
                work_units[local] = push_edges[row]
            frontiers.append(_Frontier(rows, masses))
            error_history.append([1.0 - float(estimate[local].sum())])

        def state_of(local: int) -> QueryState:
            return QueryState(
                iteration=int(iterations[local]),
                l1_error=error_history[local][-1],
                elapsed_seconds=time.perf_counter() - started,
                frontier_size=frontiers[local].rows.size,
                scores=estimate[local],
            )

        if on_iteration is not None:
            for local in range(k):
                on_iteration(first + local, state_of(local))

        # ---- incremental rounds: splice whole frontiers at once.
        # Conditions exposing a vectorised ``should_stop_many`` (e.g. the
        # certified top-k rule) are evaluated for every in-flight query of
        # the round in one pass instead of per-query Python calls; the
        # decisions are identical by that method's contract.
        stop_many = getattr(stop, "should_stop_many", None)
        active = list(range(k))
        while active:
            if stop_many is not None:
                rows = np.asarray(active, dtype=np.int64)
                stop_mask = np.asarray(
                    stop_many(
                        iterations[rows],
                        np.array([error_history[local][-1] for local in active]),
                        estimate[rows],
                    ),
                    dtype=bool,
                )
            runnable: list[int] = []
            for offset, local in enumerate(active):
                frontier = frontiers[local]
                if (
                    frontier.rows.size == 0
                    or iterations[local] >= self.max_iterations
                    or (
                        stop_mask[offset]
                        if stop_many is not None
                        else stop.should_stop(state_of(local))
                    )
                ):
                    seconds[local] = time.perf_counter() - started
                else:
                    runnable.append(local)
            if not runnable:
                break
            active = runnable

            lens = np.array(
                [frontiers[local].rows.size for local in runnable], dtype=np.int64
            )
            cols = np.concatenate([frontiers[local].rows for local in runnable])
            data = np.concatenate([frontiers[local].masses for local in runnable])
            row_ids = np.repeat(np.arange(len(runnable)), lens)

            # Per-entry delta gate (Algorithm 2, line 9): a frontier hub is
            # expanded only if its increment score alpha * mass exceeds
            # delta; gated entries also drop out of the next frontier.
            keep = alpha * data > delta
            kept_rows = row_ids[keep]
            kept_cols = cols[keep]
            counts = np.bincount(kept_rows, minlength=len(runnable))
            indptr = np.zeros(len(runnable) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            gated = sparse.csr_matrix(
                (data[keep], kept_cols, indptr),
                shape=(len(runnable), splice.num_hubs),
            )

            increment = (gated @ splice.scores).toarray()
            next_frontier = (gated @ splice.borders).tocsr()
            work_inc = np.bincount(
                kept_rows,
                weights=splice.work[kept_cols].astype(np.float64),
                minlength=len(runnable),
            ).astype(np.int64)

            locals_idx = np.asarray(runnable, dtype=np.int64)
            estimate[locals_idx] += increment
            hubs_expanded[locals_idx] += counts
            work_units[locals_idx] += work_inc
            iterations[locals_idx] += 1
            for j, local in enumerate(runnable):
                frontiers[local] = _Frontier(
                    next_frontier.indices[
                        next_frontier.indptr[j] : next_frontier.indptr[j + 1]
                    ].astype(np.int64),
                    next_frontier.data[
                        next_frontier.indptr[j] : next_frontier.indptr[j + 1]
                    ],
                )
                error_history[local].append(1.0 - float(estimate[local].sum()))
                if on_iteration is not None:
                    on_iteration(first + local, state_of(local))

        return [
            QueryResult(
                query=q,
                # Copy out of the shared chunk matrix so one retained
                # result cannot pin the whole (chunk_size, n) buffer.
                scores=estimate[local].copy(),
                iterations=int(iterations[local]),
                error_history=error_history[local],
                hubs_expanded=int(hubs_expanded[local]),
                seconds=float(seconds[local]),
                work_units=int(work_units[local]),
            )
            for local, q in enumerate(ids)
        ]
