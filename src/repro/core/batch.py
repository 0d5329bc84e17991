"""The online engine: Algorithm 2 over a batch of queries at once.

:class:`FastPPV` answers a whole batch of queries in lock-step rounds;
a single query is the batch of one (``query(q)`` is
``query_many([q])[0]``):

* **Iteration 0** runs one multi-source prime push
  (:func:`repro.core.prime.prime_push_many`) for all non-hub queries in
  the batch, with the per-round dispatch cost paid once per batch
  instead of once per query; a hub query loads its prime PPV from the
  index.  Duplicate query ids share a single push.  The push's rows run
  on this process's CPUs (:func:`repro.native.push_threads`), with the
  same bytes at every thread count.
* **The incremental iterations** are
  :func:`repro.core.splice.splice_rounds_exact` — the one round loop both
  backends run — over :func:`~repro.core.splice.resident_block`, the
  :class:`~repro.core.splice.SpliceBlock` holding every hub of the index:
  the disk engine's rounds with everything resident.

Equivalence contract
--------------------
The rounds accumulate in the order of the paper's per-hub statement of
Algorithm 2 (``tests/oracles.py::reference_query``), and every row of
iteration 0's ``prime_push_many`` is its query's lone push in any batch,
order or thread count, so each query of any batch is bitwise that
statement: ``scores``, ``error_history``, ``iterations``,
``hubs_expanded``, ``work_units`` and the states passed to
``on_iteration``, for any stopping condition that does not consult
wall-clock time.  ``seconds`` is per-query wall-clock
*within the batch* (time from batch start until the query finalised)
and ``elapsed_seconds`` in :class:`~repro.core.query.QueryState` is
shared batch time — for a batch of one, the query's own clock.

Stopping conditions are shared across a batch, so in a batch of more
than one they must be stateless (all built-in conditions are frozen
dataclasses; see :func:`batch_safe`).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro import native
from repro.core.index import PPVIndex
from repro.core.query import (
    DEFAULT_DELTA,
    BatchOfOne,
    QueryResult,
    QueryState,
    StopAfterIterations,
    StopAtL1Error,
    StoppingCondition,
    _AnyOf,
    query_ids,
)
from repro.core.prime import prime_push_many
from repro.core.splice import resident_block, splice_rounds_exact
from repro.core.topk import StopWhenCertified

BatchCallback = Callable[[int, QueryState], None]
"""Per-query iteration callback: ``(position_in_batch, state)``.

Invoked once per executed iteration per query (iteration 0 included),
mirroring :meth:`FastPPV.query`'s ``on_iteration`` — the first argument
is the query's position in the ``queries`` sequence, so duplicate query
ids remain distinguishable.
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
    ``QueryState.elapsed_seconds`` — shared batch time in a batch, a
    per-query budget in a batch of one — and arbitrary user conditions
    may be stateful or time-reading in ways that cannot be introspected,
    so the serving adapters serve all of those one query at a time.
    Pass such conditions to :meth:`FastPPV.query_many` directly to opt in
    to shared-clock, interleaved-evaluation batch semantics.
    """
    if isinstance(stop, (StopAfterIterations, StopAtL1Error, StopWhenCertified)):
        return True
    if isinstance(stop, _AnyOf):
        return all(batch_safe(c) for c in stop.conditions)
    return False


class FastPPV(BatchOfOne):
    """The FastPPV online engine (Algorithm 2; see module docstring).

    Parameters
    ----------
    graph:
        The graph queries run against.
    index:
        Offline-precomputed hub prime PPVs
        (:func:`repro.core.index.build_index`).
    delta:
        Border-hub expansion threshold: a frontier hub is expanded only if
        its current increment score ``alpha * arrival_mass`` exceeds
        ``delta`` (Algorithm 2, line 9).
    max_iterations:
        Hard safety cap on incremental iterations regardless of the
        stopping condition.
    online_epsilon:
        Reachability cut-off for the *query-time* prime push (iteration 0
        of a non-hub query).  Defaults to the index's offline epsilon; a
        coarser value trades a little iteration-0 mass (visible through
        the query-time error) for lower latency.
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
        native.load()  # refuse here, before serving, when the kernels cannot load
        self.graph = graph
        self.index = index
        self.delta = delta
        self.max_iterations = max_iterations
        self.online_epsilon = (
            online_epsilon if online_epsilon is not None else index.epsilon
        )
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #

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
        ids = query_ids(queries, self.graph.num_nodes)
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
        graph, index = self.graph, self.index
        block = resident_block(index)
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
            alpha=index.alpha,
            epsilon=self.online_epsilon,
        )

        # Estimates and frontiers as Algorithm 2 starts from them: the
        # frontier in PrimePPV's sorted border order.
        estimates = np.zeros((len(ids), graph.num_nodes))
        frontiers: list[tuple[np.ndarray, np.ndarray]] = []
        push_work = [0] * len(ids)
        for local, q in enumerate(ids):
            if q in index:
                entry = index.get(q)
                estimates[local, entry.nodes] = entry.scores
                frontiers.append(
                    (
                        entry.border_hubs.astype(np.int64, copy=False),
                        entry.border_masses.astype(np.float64, copy=False),
                    )
                )
            else:
                row = push_row_of[q]
                estimates[local] = push_scores[row]
                border_hubs = np.nonzero(push_border[row])[0]
                frontiers.append((border_hubs, push_border[row, border_hubs]))
                push_work[local] = int(push_edges[row])

        callback = None
        if on_iteration is not None:
            callback = lambda local, state: on_iteration(first + local, state)
        rounds = splice_rounds_exact(
            estimates,
            frontiers,
            stop,
            index.alpha,
            self.delta,
            self.max_iterations,
            block,
            # Every hub is resident, so nothing is ever fetched: a
            # frontier hub without a row is refused by the lookup itself.
            block.rows_of,
            started,
            on_iteration=callback,
        )
        return [
            QueryResult(
                query=q,
                # Copy out of the shared chunk matrix so one retained
                # result cannot pin the whole (chunk_size, n) buffer.
                scores=estimates[local].copy(),
                iterations=iterations,
                error_history=error_history,
                hubs_expanded=hubs_expanded,
                seconds=seconds,
                work_units=push_work[local] + work_units,
            )
            for local, (
                q,
                (iterations, error_history, hubs_expanded, work_units, seconds),
            ) in enumerate(zip(ids, rounds))
        ]
